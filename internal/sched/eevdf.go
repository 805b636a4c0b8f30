package sched

import (
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/rbtree"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// EEVDFConfig tunes the EEVDF model.
type EEVDFConfig struct {
	// BaseSlice is the per-request virtual slice (sched_base_slice);
	// Linux defaults to 0.75 ms scaled by 1+log2(ncpus) — ~3 ms on the
	// machines modeled here.
	BaseSlice time.Duration
}

// DefaultEEVDFConfig returns Linux-like defaults.
func DefaultEEVDFConfig() EEVDFConfig {
	return EEVDFConfig{BaseSlice: 3 * time.Millisecond}
}

// eevdfEnt is a scheduling entity under EEVDF.
type eevdfEnt struct {
	t        *task.Task
	vr       time.Duration // virtual runtime
	deadline time.Duration // virtual deadline = vr + BaseSlice at (re)queue
	rq       int
	node     *rbtree.Node[*eevdfEnt]
	everRan  bool
}

// eevdfRQ is one core's runqueue: entities ordered by virtual deadline,
// with an aggregate vruntime sum for O(1) eligibility checks.
type eevdfRQ struct {
	tree  *rbtree.Tree[*eevdfEnt]
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
// Model summary: each entity accrues vruntime while running; at
// (re)queue time it receives a virtual deadline vr + BaseSlice. A
// queued entity is eligible when its vruntime is at or below the
// queue's average; the scheduler runs the eligible entity with the
// earliest virtual deadline.
type EEVDF struct {
	cfg  EEVDFConfig
	api  cpusim.API
	rqs  []eevdfRQ
	cur  []*eevdfEnt
	ents map[*task.Task]*eevdfEnt
	free []*eevdfEnt // zeroed entities of finished tasks, for reuse

	// Steals counts idle-balance migrations.
	Steals int64
}

// NewEEVDF returns an EEVDF model; zero config fields are defaulted.
func NewEEVDF(cfg EEVDFConfig) *EEVDF {
	if cfg.BaseSlice <= 0 {
		cfg.BaseSlice = DefaultEEVDFConfig().BaseSlice
	}
	return &EEVDF{cfg: cfg, ents: make(map[*task.Task]*eevdfEnt)}
}

// Name implements cpusim.Scheduler.
func (e *EEVDF) Name() string { return "EEVDF" }

// Bind implements cpusim.Scheduler.
func (e *EEVDF) Bind(api cpusim.API) {
	e.api = api
	n := api.NumCores()
	e.rqs = make([]eevdfRQ, n)
	e.cur = make([]*eevdfEnt, n)
	for i := range e.rqs {
		e.rqs[i].tree = rbtree.New(func(a, b *eevdfEnt) bool {
			if a.deadline != b.deadline {
				return a.deadline < b.deadline
			}
			return a.t.ID < b.t.ID
		})
	}
}

func (e *EEVDF) nrRunning(i int) int {
	n := e.rqs[i].tree.Len()
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
// judged).
func (e *EEVDF) avgVruntime(i int) time.Duration {
	rq := &e.rqs[i]
	sum := rq.vrSum
	n := rq.tree.Len()
	if cur := e.cur[i]; cur != nil {
		sum += cur.vr + e.api.RanFor(i)
		n++
	}
	if n == 0 {
		return rq.min
	}
	return sum / time.Duration(n)
}

// insert adds ent to runqueue i, refreshing its deadline.
func (e *EEVDF) insert(i int, ent *eevdfEnt) {
	ent.rq = i
	ent.deadline = ent.vr + e.cfg.BaseSlice
	ent.node = e.rqs[i].tree.Insert(ent)
	e.rqs[i].vrSum += ent.vr
}

// removeNode detaches ent from its runqueue.
func (e *EEVDF) removeNode(ent *eevdfEnt) {
	e.rqs[ent.rq].tree.Delete(ent.node)
	ent.node = nil
	e.rqs[ent.rq].vrSum -= ent.vr
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
	} else if ent.vr < avg-e.cfg.BaseSlice {
		// Returning sleepers keep their lag, bounded to one slice so a
		// long sleep cannot bank unbounded credit (lag clamping).
		ent.vr = avg - e.cfg.BaseSlice
	}
	e.insert(rq, ent)
}

// pickEligible returns the eligible entity with the earliest virtual
// deadline on runqueue i, or nil. Entities are scanned in deadline
// order; the first with vruntime <= the queue average wins. The scan is
// bounded but in adversarial shapes can visit many nodes; typical
// queues find an eligible entity within the first few.
func (e *EEVDF) pickEligible(i int) *eevdfEnt {
	avg := e.avgVruntime(i)
	var fallback *eevdfEnt
	found := (*eevdfEnt)(nil)
	e.rqs[i].tree.Ascend(func(ent *eevdfEnt) bool {
		if fallback == nil {
			fallback = ent
		}
		if ent.vr <= avg {
			found = ent
			return false
		}
		return true
	})
	if found != nil {
		return found
	}
	// Everything is ineligible (can happen transiently from rounding):
	// run the earliest deadline anyway rather than idling.
	return fallback
}

// PickNext implements cpusim.Scheduler.
func (e *EEVDF) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	rq := &e.rqs[core]
	if rq.tree.Len() == 0 && !e.steal(core) {
		e.cur[core] = nil
		return nil, 0
	}
	ent := e.pickEligible(core)
	if ent == nil {
		e.cur[core] = nil
		return nil, 0
	}
	e.removeNode(ent)
	e.cur[core] = ent
	return ent.t, e.cfg.BaseSlice
}

// steal pulls the earliest-deadline entity from the busiest other queue.
func (e *EEVDF) steal(core int) bool {
	busiest, busiestLen := -1, 0
	for i := range e.rqs {
		if i == core {
			continue
		}
		if l := e.rqs[i].tree.Len(); l > busiestLen {
			busiest, busiestLen = i, l
		}
	}
	if busiest < 0 {
		return false
	}
	ent := e.rqs[busiest].tree.Min().Value
	e.removeNode(ent)
	// Renormalize the vruntime into the destination queue's frame.
	ent.vr = ent.vr - e.rqs[busiest].min + e.rqs[core].min
	e.insert(core, ent)
	e.Steals++
	return true
}

// Descheduled implements cpusim.Scheduler.
func (e *EEVDF) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	ent := e.ents[t]
	if ent == nil {
		panic("sched: EEVDF descheduled unknown task")
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
// with an earlier virtual deadline than the running one preempts it.
func (e *EEVDF) WantsPreempt(now simtime.Time, core int) bool {
	cur := e.cur[core]
	if cur == nil {
		return false
	}
	rq := &e.rqs[core]
	if rq.tree.Len() == 0 {
		return false
	}
	best := e.pickEligible(core)
	if best == nil {
		return false
	}
	liveVR := cur.vr + weighted(e.api.RanFor(core), cur.t.Weight)
	return best.deadline < liveVR+e.cfg.BaseSlice && best.vr <= e.avgVruntime(core)
}
