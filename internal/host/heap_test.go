package host

import (
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
)

// heapOracle mirrors a Heap's keys and checks its minimum against the
// linear scan the heap replaced: the earliest key wins, ties go to the
// lowest runtime index.
type heapOracle struct {
	h    *Heap
	keys []simtime.Time
}

func newHeapOracle(n int) *heapOracle {
	o := &heapOracle{h: NewHeap(n), keys: make([]simtime.Time, n)}
	for i := range o.keys {
		o.keys[i] = simtime.Infinity
	}
	return o
}

// update re-keys runtime i in both the heap and the mirror, then
// compares the two minima.
func (o *heapOracle) update(t *testing.T, step, i int, at simtime.Time) {
	t.Helper()
	o.keys[i] = at
	o.h.Update(i, at)
	wantHost, wantAt := -1, simtime.Infinity
	for j, k := range o.keys {
		if k < wantAt {
			wantHost, wantAt = j, k
		}
	}
	gotHost, gotAt := o.h.Min()
	// With every runtime parked the heap reports some runtime at
	// Infinity; the index is irrelevant because callers guard on the key.
	if gotAt != wantAt || (wantAt < simtime.Infinity && gotHost != wantHost) {
		t.Fatalf("step %d: heap min (runtime %d, %v), scan min (runtime %d, %v)",
			step, gotHost, gotAt, wantHost, wantAt)
	}
}

// TestHeapMatchesScan drives the heap with random re-keys, a third of
// them re-keying the current minimum as a runtime's Step does, and
// checks its minimum against the linear scan after every update — at a
// small fleet and at fleet-serial's 256 hosts.
func TestHeapMatchesScan(t *testing.T) {
	for _, hosts := range []int{9, 256} {
		o := newHeapOracle(hosts)
		r := rng.New(11)
		for step := 0; step < 5000; step++ {
			i := r.Intn(hosts)
			if r.Intn(3) == 0 {
				i, _ = o.h.Min()
			}
			k := simtime.Infinity // runtime went idle
			if r.Intn(4) != 0 {
				// Coarse buckets force frequent exact ties so the
				// index tie-break is actually exercised.
				k = time.Duration(r.Intn(50)) * time.Millisecond
			}
			o.update(t, step, i, k)
		}
	}
}

// FuzzHeapOrder replays arbitrary Update scripts against the linear
// scan. The first argument sizes the heap (1 to 256 runtimes); each
// pair of script bytes re-keys one runtime, with 255 parking it at
// Infinity and any other byte keying it that many milliseconds in.
func FuzzHeapOrder(f *testing.F) {
	f.Add(uint8(8), []byte{0, 3, 1, 3, 2, 255, 0, 255, 1, 1, 2, 0})
	f.Add(uint8(255), []byte{200, 7, 17, 7, 0, 7, 200, 255, 17, 2, 99, 2})
	f.Fuzz(func(t *testing.T, size uint8, script []byte) {
		hosts := int(size) + 1
		o := newHeapOracle(hosts)
		for step := 0; len(script) >= 2; step++ {
			i := int(script[0]) % hosts
			k := simtime.Infinity
			if script[1] != 255 {
				k = time.Duration(script[1]) * time.Millisecond
			}
			script = script[2:]
			o.update(t, step, i, k)
		}
	})
}
