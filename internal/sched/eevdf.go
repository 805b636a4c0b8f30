package sched

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// baseSlice is EEVDF's per-request virtual slice (sched_base_slice):
// Linux's 0.75 ms scaled by 1+log2(ncpus), ~3 ms on the machines
// modeled here.
const baseSlice = 3 * time.Millisecond

// eevdfEnt is a scheduling entity under EEVDF.
type eevdfEnt struct {
	t        *task.Task
	vr       time.Duration // virtual runtime
	deadline time.Duration // virtual deadline = vr + baseSlice/weight at (re)queue
	rq       int
	everRan  bool
}

// before orders entities by virtual deadline, breaking ties by task ID
// so the order is total and replays are deterministic.
func (a *eevdfEnt) before(b *eevdfEnt) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.t.ID < b.t.ID
}

// eevdfRQ is one core's runqueue: entities in a slice sorted by
// before, with an aggregate vruntime sum for O(1) eligibility checks.
// The slice keeps its capacity, so re-queueing allocates nothing.
type eevdfRQ struct {
	q     []*eevdfEnt
	vrSum time.Duration // sum of queued entities' vruntime
	min   time.Duration // monotonic floor, used to place newcomers
}

// EEVDF models Linux's Earliest Eligible Virtual Deadline First
// scheduler, which replaced CFS as SCHED_NORMAL in kernel 6.6. It is
// not part of the paper's evaluation (the paper predates it); the
// reproduction includes it as the natural "future work" substrate:
// SFS is OS-scheduler-agnostic, so its second level can be EEVDF (see
// the ablation experiments).
//
// Model summary: each entity accrues vruntime while running, at a rate
// inverse to its weight; at (re)queue time it receives a virtual
// deadline vr + baseSlice/weight (Linux's request of slice/weight, in
// the same weighted frame), so a heavy entity's deadline comes sooner.
// A queued entity is eligible when its vruntime is at or below the
// queue's average; the scheduler runs the eligible entity with the
// earliest virtual deadline.
type EEVDF struct {
	api  cpusim.API
	rqs  []eevdfRQ
	cur  []*eevdfEnt              // per-core currently running entity (nil if none)
	ents map[*task.Task]*eevdfEnt // entity of every live task, for Enqueue
	free []*eevdfEnt              // zeroed entities of finished tasks, for reuse

	// Steals counts idle-balance migrations.
	Steals int64
}

// NewEEVDF returns an EEVDF model.
func NewEEVDF() *EEVDF {
	return &EEVDF{ents: make(map[*task.Task]*eevdfEnt)}
}

// Name implements cpusim.Scheduler.
func (e *EEVDF) Name() string { return "EEVDF" }

// Bind implements cpusim.Scheduler.
func (e *EEVDF) Bind(api cpusim.API) {
	e.api = api
	n := api.NumCores()
	e.rqs = make([]eevdfRQ, n)
	e.cur = make([]*eevdfEnt, n)
}

func (e *EEVDF) nrRunning(i int) int {
	n := len(e.rqs[i].q)
	if e.cur[i] != nil {
		n++
	}
	return n
}

func (e *EEVDF) leastLoaded() int {
	best, bestN := 0, int(^uint(0)>>1)
	for i := range e.rqs {
		if n := e.nrRunning(i); n < bestN {
			best, bestN = i, n
		}
	}
	return best
}

// avgVruntime returns the runqueue's average vruntime over queued plus
// running entities (the zero-lag point against which eligibility is
// judged). The running entity's current stint counts weighted, as
// Descheduled will charge it.
func (e *EEVDF) avgVruntime(i int) time.Duration {
	rq := &e.rqs[i]
	sum := rq.vrSum
	n := len(rq.q)
	if cur := e.cur[i]; cur != nil {
		sum += cur.vr + weighted(e.api.RanFor(i), cur.t.Weight)
		n++
	}
	if n == 0 {
		return rq.min
	}
	return sum / time.Duration(n)
}

// insert adds ent to runqueue i, refreshing its deadline. It goes
// after every entity that does not sort after it, so equal entities
// keep their insertion order.
func (e *EEVDF) insert(i int, ent *eevdfEnt) {
	ent.rq = i
	ent.deadline = ent.vr + weighted(baseSlice, ent.t.Weight)
	rq := &e.rqs[i]
	k := sort.Search(len(rq.q), func(j int) bool { return ent.before(rq.q[j]) })
	rq.q = slices.Insert(rq.q, k, ent)
	rq.vrSum += ent.vr
}

// remove detaches ent from its runqueue: it finds the first entity not
// before ent and steps to ent itself among any equal ones.
func (e *EEVDF) remove(ent *eevdfEnt) {
	rq := &e.rqs[ent.rq]
	k := sort.Search(len(rq.q), func(j int) bool { return !rq.q[j].before(ent) })
	for rq.q[k] != ent {
		k++
	}
	rq.q = slices.Delete(rq.q, k, k+1)
	rq.vrSum -= ent.vr
}

// Enqueue implements cpusim.Scheduler.
func (e *EEVDF) Enqueue(now simtime.Time, t *task.Task) {
	ent := e.ents[t]
	if ent == nil {
		ent = reuse(&e.free)
		ent.t = t
		e.ents[t] = ent
	}
	rq := e.leastLoaded()
	avg := e.avgVruntime(rq)
	if !ent.everRan {
		// Newcomers join at the zero-lag point: immediately eligible,
		// deadline one slice out.
		ent.vr = avg
	} else if ent.vr < avg-baseSlice {
		// Returning sleepers keep their lag, bounded to one slice so a
		// long sleep cannot bank unbounded credit (lag clamping).
		ent.vr = avg - baseSlice
	}
	e.insert(rq, ent)
}

// pickEligible returns the eligible entity with the earliest virtual
// deadline on runqueue i, or nil when the queue is empty. Entities are
// scanned in deadline order; the first with vruntime <= the queue
// average wins. In adversarial shapes the scan can visit many entities;
// typical queues find an eligible one within the first few.
func (e *EEVDF) pickEligible(i int) *eevdfEnt {
	q := e.rqs[i].q
	if len(q) == 0 {
		return nil
	}
	avg := e.avgVruntime(i)
	for _, ent := range q {
		if ent.vr <= avg {
			return ent
		}
	}
	// Everything is ineligible (can happen transiently from rounding):
	// run the earliest deadline anyway rather than idling.
	return q[0]
}

// PickNext implements cpusim.Scheduler.
func (e *EEVDF) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	if len(e.rqs[core].q) == 0 && !e.steal(core) {
		e.cur[core] = nil
		return nil, 0
	}
	ent := e.pickEligible(core)
	e.remove(ent)
	e.cur[core] = ent
	return ent.t, baseSlice
}

// steal pulls the earliest-deadline entity from the busiest other queue.
func (e *EEVDF) steal(core int) bool {
	busiest, busiestLen := -1, 0
	for i := range e.rqs {
		if i == core {
			continue
		}
		if l := len(e.rqs[i].q); l > busiestLen {
			busiest, busiestLen = i, l
		}
	}
	if busiest < 0 {
		return false
	}
	ent := e.rqs[busiest].q[0]
	e.remove(ent)
	// Renormalize the vruntime into the destination queue's frame.
	ent.vr = ent.vr - e.rqs[busiest].min + e.rqs[core].min
	e.insert(core, ent)
	e.Steals++
	return true
}

// Descheduled implements cpusim.Scheduler. The entity is the one
// PickNext put on the core, so no map lookup is needed.
func (e *EEVDF) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	ent := e.cur[core]
	if ent == nil || ent.t != t {
		panic(fmt.Sprintf("sched: EEVDF descheduled task %d, which is not running on core %d", t.ID, core))
	}
	ent.vr += weighted(ran, t.Weight)
	ent.everRan = true
	e.cur[core] = nil
	rq := &e.rqs[core]
	if ent.vr > rq.min {
		rq.min = ent.vr
	}
	switch reason {
	case cpusim.ReasonPreempted:
		e.insert(core, ent)
	case cpusim.ReasonBlocked:
		// Lag is retained for the wake-time clamp.
	case cpusim.ReasonFinished:
		delete(e.ents, t)
		*ent = eevdfEnt{}
		e.free = append(e.free, ent)
	}
}

// WantsPreempt implements cpusim.Scheduler: a queued eligible entity
// with an earlier virtual deadline than the running one preempts it;
// the running entity's deadline is its live vruntime plus its weighted
// request, as if it were queued again now.
func (e *EEVDF) WantsPreempt(now simtime.Time, core int) bool {
	cur := e.cur[core]
	if cur == nil {
		return false
	}
	best := e.pickEligible(core)
	if best == nil {
		return false
	}
	liveVR := cur.vr + weighted(e.api.RanFor(core), cur.t.Weight)
	return best.deadline < liveVR+weighted(baseSlice, cur.t.Weight) && best.vr <= e.avgVruntime(core)
}
