// Package sched implements models of the Linux schedulers the paper
// evaluates — CFS (SCHED_NORMAL), FIFO (SCHED_FIFO), RR (SCHED_RR) — plus
// the SRTF offline oracle and the IDEAL zero-contention baseline.
//
// The models capture the policy-level behaviour that determines the
// paper's metrics (waiting time, preemption counts, turnaround): per-core
// vruntime-ordered red-black runqueues with latency-target slice sizing
// for CFS, run-to-block semantics for FIFO, fixed round-robin quanta for
// RR. They deliberately omit features no experiment touches (cgroups,
// NUMA domains, nice levels other than 0, RT throttling).
package sched

import (
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/rbtree"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// CFSConfig holds the tunables of the CFS model. The defaults mirror
// Linux on a ~16-core machine, where the kernel scales the base values
// (6 ms / 0.75 ms / 1 ms) by 1+log2(ncpus) capped at 4x... in practice
// sched_latency 24 ms, min granularity 3 ms, wakeup granularity 4 ms.
type CFSConfig struct {
	// TargetLatency is the scheduling period within which every runnable
	// task on a runqueue should run once (sched_latency_ns).
	TargetLatency time.Duration
	// MinGranularity is the floor on a task's slice
	// (sched_min_granularity_ns).
	MinGranularity time.Duration
	// WakeupGranularity limits wakeup preemption: a waking task preempts
	// only if the current task's vruntime exceeds the waking task's by
	// more than this (sched_wakeup_granularity_ns).
	WakeupGranularity time.Duration
	// SleeperCredit is the maximum vruntime credit granted to a waking
	// sleeper (half the target latency in Linux's place_entity).
	SleeperCredit time.Duration
}

// DefaultCFSConfig returns the Linux-like defaults described above.
func DefaultCFSConfig() CFSConfig {
	return CFSConfig{
		TargetLatency:     24 * time.Millisecond,
		MinGranularity:    3 * time.Millisecond,
		WakeupGranularity: 4 * time.Millisecond,
		SleeperCredit:     12 * time.Millisecond,
	}
}

// cfsEnt is the per-task scheduling entity (struct sched_entity).
type cfsEnt struct {
	t       *task.Task
	vr      time.Duration // vruntime
	rq      int           // runqueue (core) index this entity belongs to
	node    *rbtree.Node[*cfsEnt]
	everRan bool
}

// runqueue models one core's cfs_rq.
type runqueue struct {
	tree *rbtree.Tree[*cfsEnt]
	min  time.Duration // min_vruntime, monotonically non-decreasing
}

// CFS is the Completely Fair Scheduler model. It satisfies
// cpusim.Scheduler and is also embedded by the SFS scheduler as its
// lower-priority second level.
type CFS struct {
	cfg  CFSConfig
	api  cpusim.API
	rqs  []runqueue
	cur  []*cfsEnt // per-core currently running entity (nil if none)
	ents map[*task.Task]*cfsEnt
	free []*cfsEnt // zeroed entities of finished tasks, for reuse

	// Stats.
	Steals int64 // idle-balance migrations between runqueues
}

// NewCFS returns a CFS model with the given config; zero fields are
// filled from DefaultCFSConfig.
func NewCFS(cfg CFSConfig) *CFS {
	def := DefaultCFSConfig()
	if cfg.TargetLatency <= 0 {
		cfg.TargetLatency = def.TargetLatency
	}
	if cfg.MinGranularity <= 0 {
		cfg.MinGranularity = def.MinGranularity
	}
	if cfg.WakeupGranularity <= 0 {
		cfg.WakeupGranularity = def.WakeupGranularity
	}
	if cfg.SleeperCredit <= 0 {
		cfg.SleeperCredit = def.SleeperCredit
	}
	return &CFS{cfg: cfg, ents: make(map[*task.Task]*cfsEnt)}
}

// Name implements cpusim.Scheduler.
func (c *CFS) Name() string { return "CFS" }

// Bind implements cpusim.Scheduler.
func (c *CFS) Bind(api cpusim.API) {
	c.api = api
	n := api.NumCores()
	c.rqs = make([]runqueue, n)
	c.cur = make([]*cfsEnt, n)
	for i := range c.rqs {
		c.rqs[i].tree = rbtree.New(entLess)
	}
}

func entLess(a, b *cfsEnt) bool {
	if a.vr != b.vr {
		return a.vr < b.vr
	}
	return a.t.ID < b.t.ID
}

// nrRunning returns the number of tasks on runqueue i including the one
// currently on its core.
func (c *CFS) nrRunning(i int) int {
	n := c.rqs[i].tree.Len()
	if c.cur[i] != nil {
		n++
	}
	return n
}

// TotalRunnable returns the number of runnable (queued or running) tasks
// across all runqueues.
func (c *CFS) TotalRunnable() int {
	n := 0
	for i := range c.rqs {
		n += c.nrRunning(i)
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
	ent.rq = rq
	min := c.rqs[rq].min
	if !ent.everRan {
		// New task: START_DEBIT placement — one vslice behind
		// min_vruntime, so newcomers wait roughly one scheduling round
		// on a busy queue (Linux place_entity with initial=1).
		nr := c.nrRunning(rq) + 1
		vslice := c.cfg.TargetLatency / time.Duration(nr)
		if vslice < c.cfg.MinGranularity {
			vslice = c.cfg.MinGranularity
		}
		ent.vr = min + vslice
	} else {
		// Waking sleeper: grant bounded credit (place_entity), but never
		// let vruntime move backwards relative to its own history.
		placed := min - c.cfg.SleeperCredit
		if ent.vr < placed {
			ent.vr = placed
		}
	}
	ent.node = c.rqs[rq].tree.Insert(ent)
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
	if rq.tree.Len() == 0 {
		if !c.steal(core) {
			c.cur[core] = nil
			return nil, 0
		}
	}
	ent, _ := rq.tree.PopMin()
	ent.node = nil
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
	slice := c.cfg.TargetLatency / time.Duration(nr)
	if slice < c.cfg.MinGranularity {
		slice = c.cfg.MinGranularity
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
		if l := c.rqs[i].tree.Len(); l > busiestLen {
			busiest, busiestLen = i, l
		}
	}
	if busiest < 0 {
		return false
	}
	ent, _ := c.rqs[busiest].tree.PopMin()
	ent.node = nil
	// Re-normalize vruntime to the destination queue's frame of
	// reference so the stolen task is neither starved nor dominant.
	ent.vr = ent.vr - c.rqs[busiest].min + c.rqs[core].min
	ent.rq = core
	ent.node = c.rqs[core].tree.Insert(ent)
	c.Steals++
	return true
}

// Descheduled implements cpusim.Scheduler: account vruntime and either
// requeue (preemption) or drop (block/finish) the entity.
func (c *CFS) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	ent := c.ents[t]
	if ent == nil {
		panic("sched: CFS descheduled unknown task")
	}
	ent.vr += weighted(ran, t.Weight)
	ent.everRan = true
	c.cur[core] = nil
	switch reason {
	case cpusim.ReasonPreempted:
		ent.rq = core
		ent.node = c.rqs[core].tree.Insert(ent)
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
	if l := rq.tree.Min(); l != nil && l.Value.vr < min {
		min = l.Value.vr
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
	leftmost := c.rqs[core].tree.Min()
	if leftmost == nil {
		return false
	}
	liveVR := cur.vr + weighted(c.api.RanFor(core), cur.t.Weight)
	return liveVR-leftmost.Value.vr > c.cfg.WakeupGranularity
}

// Runnable returns the queued entity count on core's runqueue (excluding
// the running task); exposed for SFS and tests.
func (c *CFS) Runnable(core int) int { return c.rqs[core].tree.Len() }
