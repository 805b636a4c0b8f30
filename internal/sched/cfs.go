// Package sched implements models of the Linux schedulers the paper
// evaluates — CFS (SCHED_NORMAL), FIFO (SCHED_FIFO), RR (SCHED_RR) — plus
// the SRTF offline oracle and the IDEAL zero-contention baseline.
//
// The models capture the policy-level behaviour that determines the
// paper's metrics (waiting time, preemption counts, turnaround): per-core
// vruntime-ordered runqueues with latency-target slice sizing for CFS,
// run-to-block semantics for FIFO, fixed round-robin quanta for RR. They
// deliberately omit features no experiment touches (cgroups, NUMA
// domains, nice levels other than 0, RT throttling).
package sched

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// The CFS model's tunables, at Linux's values on a ~16-core machine,
// where the kernel scales the base values (6 ms / 0.75 ms / 1 ms) by
// 1+log2(ncpus) capped at 4x.
const (
	// targetLatency is the scheduling period within which every
	// runnable task on a runqueue should run once (sched_latency_ns).
	targetLatency = 24 * time.Millisecond
	// minGranularity is the floor on a task's slice
	// (sched_min_granularity_ns).
	minGranularity = 3 * time.Millisecond
	// wakeupGranularity limits wakeup preemption: a waking task
	// preempts only if the current task's vruntime exceeds the waking
	// task's by more than this (sched_wakeup_granularity_ns).
	wakeupGranularity = 4 * time.Millisecond
	// sleeperCredit is the maximum vruntime credit granted to a waking
	// sleeper (half the target latency in Linux's place_entity).
	sleeperCredit = 12 * time.Millisecond
)

// cfsEnt is the per-task scheduling entity (struct sched_entity).
type cfsEnt struct {
	t       *task.Task
	vr      time.Duration // vruntime
	rq      int           // runqueue (core) index this entity belongs to
	everRan bool
}

// cfsRQ models one core's cfs_rq: queued entities keyed by vruntime.
type cfsRQ struct {
	q   runQueue[*cfsEnt]
	min time.Duration // min_vruntime, monotonically non-decreasing
}

// CFS is the Completely Fair Scheduler model. It satisfies
// cpusim.Scheduler and is also embedded by the SFS scheduler as its
// lower-priority second level.
type CFS struct {
	api  cpusim.API
	rqs  []cfsRQ
	cur  []*cfsEnt              // per-core currently running entity (nil if none)
	ents map[*task.Task]*cfsEnt // entity of every live task, for Enqueue
	free []*cfsEnt              // zeroed entities of finished tasks, for reuse

	// Stats.
	Steals int64 // idle-balance migrations between runqueues
}

// NewCFS returns a CFS model.
func NewCFS() *CFS {
	return &CFS{ents: make(map[*task.Task]*cfsEnt)}
}

// Name implements cpusim.Scheduler.
func (c *CFS) Name() string { return "CFS" }

// Bind implements cpusim.Scheduler.
func (c *CFS) Bind(api cpusim.API) {
	c.api = api
	n := api.NumCores()
	c.rqs = make([]cfsRQ, n)
	c.cur = make([]*cfsEnt, n)
}

// insert queues ent on runqueue rq under its current vruntime.
func (c *CFS) insert(rq int, ent *cfsEnt) {
	ent.rq = rq
	c.rqs[rq].q.Insert(ent.vr, ent.t.ID, ent)
}

// nrRunning returns the number of tasks on runqueue i including the one
// currently on its core.
func (c *CFS) nrRunning(i int) int {
	n := c.rqs[i].q.Len()
	if c.cur[i] != nil {
		n++
	}
	return n
}

// leastLoaded picks the runqueue with the fewest runnable tasks
// (select_task_rq's slow path, simplified).
func (c *CFS) leastLoaded() int {
	best, bestN := 0, int(^uint(0)>>1)
	for i := range c.rqs {
		if n := c.nrRunning(i); n < bestN {
			best, bestN = i, n
		}
	}
	return best
}

// Enqueue implements cpusim.Scheduler: place an arriving or waking task
// on the least-loaded runqueue with a placed vruntime.
func (c *CFS) Enqueue(now simtime.Time, t *task.Task) {
	ent := c.ents[t]
	if ent == nil {
		ent = reuse(&c.free)
		ent.t = t
		c.ents[t] = ent
	}
	rq := c.leastLoaded()
	min := c.rqs[rq].min
	if !ent.everRan {
		// New task: START_DEBIT placement — one vslice behind
		// min_vruntime, so newcomers wait roughly one scheduling round
		// on a busy queue (Linux place_entity with initial=1).
		nr := c.nrRunning(rq) + 1
		vslice := targetLatency / time.Duration(nr)
		if vslice < minGranularity {
			vslice = minGranularity
		}
		ent.vr = min + vslice
	} else {
		// Waking sleeper: grant bounded credit (place_entity), but never
		// let vruntime move backwards relative to its own history.
		placed := min - sleeperCredit
		if ent.vr < placed {
			ent.vr = placed
		}
	}
	c.insert(rq, ent)
}

// reuse pops a zeroed entity off free, or allocates one when the list
// is empty.
func reuse[E any](free *[]*E) *E {
	n := len(*free)
	if n == 0 {
		return new(E)
	}
	e := (*free)[n-1]
	*free = (*free)[:n-1]
	return e
}

// PickNext implements cpusim.Scheduler: run the leftmost entity of the
// core's runqueue, stealing from the busiest queue when local is empty
// (idle balance).
func (c *CFS) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	rq := &c.rqs[core]
	if rq.q.Len() == 0 {
		if !c.steal(core) {
			c.cur[core] = nil
			return nil, 0
		}
	}
	ent, _ := rq.q.PopMin()
	c.cur[core] = ent
	c.updateMin(core)
	return ent.t, c.sliceFor(core)
}

// sliceFor computes the slice for the task about to run on core:
// sched_latency divided among the runqueue's tasks, floored at the
// minimum granularity.
func (c *CFS) sliceFor(core int) time.Duration {
	nr := c.nrRunning(core)
	if nr <= 0 {
		nr = 1
	}
	slice := targetLatency / time.Duration(nr)
	if slice < minGranularity {
		slice = minGranularity
	}
	return slice
}

// steal pulls the leftmost entity from the busiest other runqueue onto
// core's queue, normalizing vruntime across queues. Returns false if no
// queue has waiting tasks.
func (c *CFS) steal(core int) bool {
	busiest, busiestLen := -1, 0
	for i := range c.rqs {
		if i == core {
			continue
		}
		if l := c.rqs[i].q.Len(); l > busiestLen {
			busiest, busiestLen = i, l
		}
	}
	if busiest < 0 {
		return false
	}
	ent, _ := c.rqs[busiest].q.PopMin()
	// Re-normalize vruntime to the destination queue's frame of
	// reference so the stolen task is neither starved nor dominant.
	ent.vr = ent.vr - c.rqs[busiest].min + c.rqs[core].min
	c.insert(core, ent)
	c.Steals++
	return true
}

// Descheduled implements cpusim.Scheduler: account vruntime and either
// requeue (preemption) or drop (block/finish) the entity. The entity
// is the one PickNext put on the core, so no map lookup is needed.
func (c *CFS) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	ent := c.cur[core]
	if ent == nil || ent.t != t {
		panic(fmt.Sprintf("sched: CFS descheduled task %d, which is not running on core %d", t.ID, core))
	}
	ent.vr += weighted(ran, t.Weight)
	ent.everRan = true
	c.cur[core] = nil
	switch reason {
	case cpusim.ReasonPreempted:
		c.insert(core, ent)
	case cpusim.ReasonBlocked:
		// Entity leaves the queue; vruntime is retained for wake placement.
	case cpusim.ReasonFinished:
		delete(c.ents, t)
		*ent = cfsEnt{}
		c.free = append(c.free, ent)
	}
	c.updateMin(core)
}

// weighted scales run time by the nice-0 weight ratio. All tasks in the
// reproduction run at nice 0, so this is usually identity.
func weighted(d time.Duration, weight int) time.Duration {
	if weight <= 0 || weight == task.DefaultWeight {
		return d
	}
	return time.Duration(int64(d) * int64(task.DefaultWeight) / int64(weight))
}

// updateMin advances the runqueue's monotonic min_vruntime.
func (c *CFS) updateMin(core int) {
	rq := &c.rqs[core]
	min := time.Duration(1<<63 - 1)
	if cur := c.cur[core]; cur != nil {
		min = cur.vr
	}
	if vr, _, ok := rq.q.Min(); ok && vr < min {
		min = vr
	}
	if min != time.Duration(1<<63-1) && min > rq.min {
		rq.min = min
	}
}

// WantsPreempt implements cpusim.Scheduler: wakeup preemption — the
// leftmost queued entity preempts the current one if its vruntime lag
// exceeds the wakeup granularity.
func (c *CFS) WantsPreempt(now simtime.Time, core int) bool {
	cur := c.cur[core]
	if cur == nil {
		return false
	}
	leftmost, _, ok := c.rqs[core].q.Min()
	if !ok {
		return false
	}
	liveVR := cur.vr + weighted(c.api.RanFor(core), cur.t.Weight)
	return liveVR-leftmost > wakeupGranularity
}

// Renews implements cpusim.Renewer: with no other entity queued on
// core's runqueue, a slice expiry hands the core straight back to the
// running entity.
func (c *CFS) Renews(core int) (time.Duration, bool) {
	if c.cur[core] == nil || c.rqs[core].q.Len() > 0 {
		return 0, false
	}
	return c.sliceFor(core), true
}

// Renewed implements cpusim.Renewer: on an empty runqueue the requeue in
// Descheduled and the pop in PickNext cancel out, leaving the vruntime
// charge and the min_vruntime update.
func (c *CFS) Renewed(core int, ran time.Duration) {
	ent := c.cur[core]
	ent.vr += weighted(ran, ent.t.Weight)
	ent.everRan = true
	c.updateMin(core)
}
