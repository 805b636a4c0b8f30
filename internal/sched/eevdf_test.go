package sched

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/task"
)

// TestEEVDFQueueMatchesModel: over a random script of inserts and
// removals of arbitrary queued entities, with virtual deadlines and
// task IDs drawn from small ranges so equal (deadline, ID) pairs are
// common, each EEVDF run queue equals its model after every op: the
// queued entities in insertion order, stably sorted by (deadline, ID).
// So insert places an entity after every equal one, remove takes out
// exactly the entity asked for, and the vruntime sum stays exact.
func TestEEVDFQueueMatchesModel(t *testing.T) {
	e := &EEVDF{rqs: make([]eevdfRQ, 2)}
	r := rng.New(3)
	model := make([][]*eevdfEnt, len(e.rqs)) // per queue, in insertion order
	nth := map[*eevdfEnt]int{}               // insertion number, for messages
	for op := 0; op < 4000; op++ {
		i := r.Intn(len(e.rqs))
		insertIn5 := 3 // phases of 1,000 ops alternate between growing and draining
		if op/1000%2 == 1 {
			insertIn5 = 1
		}
		if len(model[i]) == 0 || r.Intn(5) < insertIn5 {
			ent := &eevdfEnt{t: task.New(r.Intn(4), 0, time.Millisecond), vr: time.Duration(r.Intn(8))}
			e.insert(i, ent)
			model[i] = append(model[i], ent)
			nth[ent] = len(nth)
		} else {
			k := r.Intn(len(model[i]))
			e.remove(model[i][k])
			model[i] = slices.Delete(model[i], k, k+1)
		}
		want := slices.Clone(model[i])
		slices.SortStableFunc(want, func(a, b *eevdfEnt) int {
			switch {
			case a.before(b):
				return -1
			case b.before(a):
				return 1
			}
			return 0
		})
		if !slices.Equal(e.rqs[i].q, want) {
			t.Fatalf("op %d: queue %d holds %v, model %v", op, i, render(e.rqs[i].q, nth), render(want, nth))
		}
		var sum time.Duration
		for _, ent := range want {
			sum += ent.vr
		}
		if e.rqs[i].vrSum != sum {
			t.Fatalf("op %d: queue %d vruntime sum %v, model %v", op, i, e.rqs[i].vrSum, sum)
		}
	}
	if len(nth) < 1000 {
		t.Fatalf("only %d inserts in the script", len(nth))
	}
}

// render lists a queue as "deadline/ID#insertion" for failure messages.
func render(q []*eevdfEnt, nth map[*eevdfEnt]int) []string {
	out := make([]string, len(q))
	for i, ent := range q {
		out[i] = fmt.Sprintf("%d/%d#%d", ent.deadline, ent.t.ID, nth[ent])
	}
	return out
}

// handAPI is the engine side of an EEVDF driven by hand: a core count
// and the running stint RanFor reports. The scheduler under test calls
// nothing else.
type handAPI struct {
	cpusim.API
	cores int
	ran   time.Duration
}

func (a handAPI) NumCores() int            { return a.cores }
func (a handAPI) RanFor(int) time.Duration { return a.ran }

// handEEVDF returns an EEVDF bound to handAPI with n empty run queues
// and every core idle.
func handEEVDF(n int) *EEVDF {
	e := NewEEVDF()
	e.Bind(handAPI{cores: n})
	return e
}

// newEnt returns an unqueued entity of a fresh task with vruntime vr.
func newEnt(id int, vr time.Duration) *eevdfEnt {
	return &eevdfEnt{t: task.New(id, 0, time.Millisecond), vr: vr}
}

// ids lists a queue's task IDs in queue order.
func ids(q []*eevdfEnt) []int {
	out := make([]int, len(q))
	for i, ent := range q {
		out[i] = ent.t.ID
	}
	return out
}

// TestEEVDFEmptyQueues: with every run queue empty, pickEligible finds
// nothing, steal has nothing to take and counts no steal, and PickNext
// leaves the core idle. An idle core never steals from its own queue.
func TestEEVDFEmptyQueues(t *testing.T) {
	e := handEEVDF(3)
	if got := e.pickEligible(0); got != nil {
		t.Fatalf("pickEligible on an empty queue returned task %d", got.t.ID)
	}
	if e.steal(0) {
		t.Fatal("steal succeeded with every queue empty")
	}
	if tk, slice := e.PickNext(0, 1); tk != nil || slice != 0 || e.cur[1] != nil {
		t.Fatalf("PickNext with every queue empty ran %v for %v", tk, slice)
	}
	e.insert(0, newEnt(1, 0))
	if e.steal(0) {
		t.Fatal("steal took from the idle core's own queue")
	}
	if e.Steals != 0 || len(e.rqs[0].q) != 1 {
		t.Fatalf("%d steals, %d entities left on queue 0; want 0 and 1", e.Steals, len(e.rqs[0].q))
	}
}

// TestEEVDFStealTakesEarliestFromBusiest: an idle core steals the
// entity of earliest (deadline, ID) from the longest other queue, the
// first such queue when lengths tie, and moves its vruntime from that
// queue's frame into its own: the same distance above the floor, with a
// fresh deadline one slice out. Both queues' vruntime sums follow.
func TestEEVDFStealTakesEarliestFromBusiest(t *testing.T) {
	e := handEEVDF(4)
	e.rqs[0].min = 100
	e.rqs[2].min = 40
	for _, x := range []struct {
		rq, id int
		vr     time.Duration
	}{
		{1, 10, 50}, {1, 11, 60},
		{2, 20, 70}, {2, 22, 45}, {2, 21, 45}, // busiest; 21 and 22 tie on deadline
		{3, 30, 10}, {3, 31, 20}, {3, 32, 30}, // as long as queue 2, with earlier deadlines
	} {
		e.insert(x.rq, newEnt(x.id, x.vr))
	}
	if !e.steal(0) {
		t.Fatal("steal found nothing to take")
	}
	if got := ids(e.rqs[0].q); !slices.Equal(got, []int{21}) {
		t.Fatalf("core 0 holds tasks %v after the steal, want [21]", got)
	}
	got := e.rqs[0].q[0]
	if got.rq != 0 || got.vr != 45-40+100 || got.deadline != got.vr+baseSlice {
		t.Fatalf("stolen entity on queue %d with vruntime %d, deadline %d; want 0, 105, 105+%d",
			got.rq, got.vr, got.deadline, baseSlice)
	}
	if left := ids(e.rqs[2].q); !slices.Equal(left, []int{22, 20}) {
		t.Fatalf("queue 2 holds tasks %v after the steal, want [22 20]", left)
	}
	if e.rqs[0].vrSum != 105 || e.rqs[2].vrSum != 115 || e.Steals != 1 {
		t.Fatalf("vruntime sums %d and %d, %d steals; want 105, 115 and 1",
			e.rqs[0].vrSum, e.rqs[2].vrSum, e.Steals)
	}
}

// TestEEVDFQuickStealDrainsSorted uses testing/quick: for any list of
// vruntimes queued on one core, an idle core that picks, runs to the
// end and picks again takes every entity by stealing, in (deadline, ID)
// order, and leaves the source queue empty with a zero vruntime sum.
func TestEEVDFQuickStealDrainsSorted(t *testing.T) {
	f := func(vrs []uint8) bool {
		e := handEEVDF(2)
		want := make([]*task.Task, len(vrs))
		for i, v := range vrs {
			ent := newEnt(len(vrs)-i, time.Duration(v)) // IDs descend, so ties reorder
			want[i] = ent.t
			e.insert(1, ent)
		}
		slices.SortStableFunc(want, func(a, b *task.Task) int {
			return cmp.Or(cmp.Compare(vrs[len(vrs)-a.ID], vrs[len(vrs)-b.ID]), cmp.Compare(a.ID, b.ID))
		})
		for _, w := range want {
			tk, _ := e.PickNext(0, 0)
			if tk != w {
				return false
			}
			e.Descheduled(0, 0, tk, time.Millisecond, cpusim.ReasonFinished)
		}
		tk, _ := e.PickNext(0, 0)
		return tk == nil && len(e.rqs[1].q) == 0 && e.rqs[1].vrSum == 0 && e.Steals == int64(len(vrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEEVDFPickEligibleScansDeadlineOrder: pickEligible returns the
// first entity in deadline order whose vruntime is at or below the
// average over the queue and the running entity's live vruntime, and
// the queue head when none is. The queue is laid out by hand with
// deadlines unrelated to vruntime, because insert's uniform request
// always leaves the least vruntime at the head.
func TestEEVDFPickEligibleScansDeadlineOrder(t *testing.T) {
	a, b, c := newEnt(1, 90), newEnt(2, 60), newEnt(3, 30)
	a.deadline, b.deadline, c.deadline = 10, 20, 30
	for _, tc := range []struct {
		name   string
		q      []*eevdfEnt
		cur    *eevdfEnt
		ran    time.Duration
		want   *eevdfEnt
		reason string
	}{
		{"first eligible", []*eevdfEnt{a, b, c}, nil, 0, b, "average 60: b is the first at or below it"},
		{"running lowers average", []*eevdfEnt{a, b}, newEnt(9, 0), 0, a, "average 50: nothing eligible, so the head"},
		{"running stint counts", []*eevdfEnt{a, b}, newEnt(9, 0), 60, b, "average 70 with 60 run: b is eligible"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := handEEVDF(1)
			e.api = handAPI{cores: 1, ran: tc.ran}
			e.rqs[0].q = tc.q
			for _, ent := range tc.q {
				e.rqs[0].vrSum += ent.vr
			}
			e.cur[0] = tc.cur
			if got := e.pickEligible(0); got != tc.want {
				t.Fatalf("picked task %d, want %d (%s)", got.t.ID, tc.want.t.ID, tc.reason)
			}
		})
	}
}

// TestEEVDFWeightScalesRequest: a heavy entity's request, and so its
// virtual deadline, shrinks with its weight, which is what makes
// eligibility decide anything. A 4x-weight entity queued ahead of its
// vruntime holds the earliest deadline yet sits above the average, so
// pickEligible skips it for the lighter eligible one; a running heavy
// entity's stint counts weighted in the average, and its short request
// keeps a later deadline from preempting it.
func TestEEVDFWeightScalesRequest(t *testing.T) {
	const ms = time.Millisecond
	heavyEnt := func(id int, vr time.Duration) *eevdfEnt {
		ent := newEnt(id, vr)
		ent.t.Weight = 4 * task.DefaultWeight
		return ent
	}

	e := handEEVDF(1)
	heavy, light := heavyEnt(1, 4*ms), newEnt(2, 2*ms)
	e.insert(0, heavy)
	e.insert(0, light)
	if heavy.deadline != 4*ms+baseSlice/4 || light.deadline != 2*ms+baseSlice {
		t.Fatalf("deadlines %v and %v, want vr plus baseSlice/weight: %v and %v",
			heavy.deadline, light.deadline, 4*ms+baseSlice/4, 2*ms+baseSlice)
	}
	if got := ids(e.rqs[0].q); got[0] != 1 {
		t.Fatalf("queue %v, want the heavy task's earlier deadline first", got)
	}
	if got := e.pickEligible(0); got != light {
		t.Fatalf("picked task %d, want 2: task 1's vruntime 4ms is above the average 3ms", got.t.ID)
	}

	e = handEEVDF(1)
	e.api = handAPI{cores: 1, ran: 4 * ms}
	e.cur[0] = heavyEnt(1, 0)
	e.insert(0, newEnt(2, -ms))
	if avg := e.avgVruntime(0); avg != 0 {
		t.Fatalf("average vruntime %v, want 0: the heavy task's 4ms stint counts as 1ms", avg)
	}
	if e.WantsPreempt(0, 0) {
		t.Fatal("an eligible task with deadline 2ms preempted a heavy task whose request ends at 1.75ms")
	}
}

// TestEEVDFRequeueAllocFree: once a run queue has reached its working
// size, taking an entity off (the head, as PickNext does, or any
// other, as a steal from a busy queue can) and queueing it again
// allocates nothing, and the slots the slice keeps past its length hold
// no entity, so a removed task is not kept alive by its old queue.
func TestEEVDFRequeueAllocFree(t *testing.T) {
	e := handEEVDF(1)
	ents := make([]*eevdfEnt, 64)
	for i := range ents {
		ents[i] = newEnt(i, time.Duration(i))
		e.insert(0, ents[i])
	}
	rq := &e.rqs[0]
	vr := time.Duration(len(ents))
	if a := testing.AllocsPerRun(1000, func() {
		head := rq.q[0]
		e.remove(head)
		head.vr = vr
		vr++
		e.insert(0, head)
	}); a != 0 {
		t.Fatalf("head remove+insert: %v allocs per cycle, want 0", a)
	}
	k := 0
	if a := testing.AllocsPerRun(1000, func() {
		ent := ents[k*37%len(ents)]
		e.remove(ent)
		ent.vr = time.Duration(k % 97)
		k++
		e.insert(0, ent)
	}); a != 0 {
		t.Fatalf("arbitrary remove+insert: %v allocs per cycle, want 0", a)
	}
	var sum time.Duration
	for _, ent := range ents {
		sum += ent.vr
	}
	if len(rq.q) != len(ents) || rq.vrSum != sum {
		t.Fatalf("%d entities with vruntime sum %d, want %d and %d", len(rq.q), rq.vrSum, len(ents), sum)
	}
	for len(rq.q) > len(ents)/2 {
		e.remove(rq.q[len(rq.q)/2])
	}
	for i, ent := range rq.q[len(rq.q):cap(rq.q)] {
		if ent != nil {
			t.Fatalf("slot %d past the queue's length still holds task %d", len(rq.q)+i, ent.t.ID)
		}
	}
}

// TestEEVDFFinishedEntityIsClearedAndReused: a finished task's entity
// leaves the task map, is zeroed so it holds no task and no history,
// and is the entity the next newcomer gets, which joins at the zero-lag
// point as every newcomer does.
func TestEEVDFFinishedEntityIsClearedAndReused(t *testing.T) {
	e := handEEVDF(1)
	first := task.New(1, 0, time.Millisecond)
	e.Enqueue(0, first)
	if tk, _ := e.PickNext(0, 0); tk != first {
		t.Fatalf("PickNext ran %v, want task 1", tk)
	}
	ent := e.cur[0]
	e.Descheduled(0, 0, first, 7*time.Millisecond, cpusim.ReasonFinished)
	if *ent != (eevdfEnt{}) || e.ents[first] != nil || !slices.Equal(e.free, []*eevdfEnt{ent}) {
		t.Fatalf("finished entity %+v, in map %v, free list %v: want it zeroed, unmapped and free",
			*ent, e.ents[first] != nil, e.free)
	}
	second := task.New(2, 0, time.Millisecond)
	e.Enqueue(0, second)
	if e.ents[second] != ent || len(e.free) != 0 {
		t.Fatal("the newcomer did not get the finished task's entity")
	}
	if ent.t != second || ent.vr != 7*time.Millisecond || ent.everRan {
		t.Fatalf("reused entity holds task %d at vruntime %v (ran before: %v); want task 2 at the queue floor 7ms, never run",
			ent.t.ID, ent.vr, ent.everRan)
	}
}
