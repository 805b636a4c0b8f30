package host

import "github.com/serverless-sched/sfs/internal/simtime"

// Heap is an index-addressable binary min-heap of runtime indices
// keyed by each runtime's next pending event time. It replaces the
// O(hosts) scan the global event loop used to run before every step:
// peeking the globally-earliest runtime is O(1) and re-keying a
// runtime after it steps or receives work is O(log hosts).
//
// Ordering matches the scan it replaced exactly — earliest time first,
// ties broken by lowest index — so replays are byte-identical at any
// host count. Runtimes with no pending work are parked at
// simtime.Infinity rather than removed, which keeps every runtime
// addressable by index.
//
// Heap slots carry their (time, index) key inline, so a sift compares
// adjacent slots without indirecting through a per-runtime key array,
// and it moves entries into a hole rather than swapping pairs — the
// layout simtime.Queue uses for the engine's event queue.
type Heap struct {
	heap []heapEntry // heap-ordered by (at, idx)
	pos  []int       // runtime index -> position in heap
}

// heapEntry is one heap slot: a runtime and its current key.
type heapEntry struct {
	at  simtime.Time
	idx int
}

// before orders entries by (key, runtime index); the index tie-break
// reproduces the old scan's first-minimum choice.
func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.idx < b.idx
}

// NewHeap builds a heap of n runtimes, all parked at Infinity.
func NewHeap(n int) *Heap {
	h := &Heap{
		heap: make([]heapEntry, n),
		pos:  make([]int, n),
	}
	for i := 0; i < n; i++ {
		h.heap[i] = heapEntry{at: simtime.Infinity, idx: i}
		h.pos[i] = i
	}
	return h
}

// Min returns the runtime with the earliest key (lowest index on ties)
// and that key. Runtimes with no work report simtime.Infinity.
func (h *Heap) Min() (idx int, at simtime.Time) {
	top := h.heap[0]
	return top.idx, top.at
}

// Update re-keys runtime i and restores the heap invariant.
func (h *Heap) Update(i int, at simtime.Time) {
	p := h.pos[i]
	if h.heap[p].at == at {
		return
	}
	x := heapEntry{at: at, idx: i}
	if p > 0 && x.before(h.heap[(p-1)/2]) {
		h.up(p, x)
	} else {
		h.down(p, x)
	}
}

// up places x at heap position i, the slot it sifts up from, moving
// later ancestors down into the hole instead of swapping.
func (h *Heap) up(i int, x heapEntry) {
	hp := h.heap
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(hp[p]) {
			break
		}
		hp[i] = hp[p]
		h.pos[hp[i].idx] = i
		i = p
	}
	hp[i] = x
	h.pos[x.idx] = i
}

// down places x at heap position i, the slot it sifts down from,
// moving earlier children up into the hole instead of swapping.
func (h *Heap) down(i int, x heapEntry) {
	hp := h.heap
	n := len(hp)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && hp[r].before(hp[c]) {
			c = r
		}
		if !hp[c].before(x) {
			break
		}
		hp[i] = hp[c]
		h.pos[hp[i].idx] = i
		i = c
	}
	hp[i] = x
	h.pos[x.idx] = i
}
