package sched

import (
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/rng"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// CoreGranular models the centralized core-granular scheduler the paper
// discusses in §XI (Kaffes et al., SoCC '19): a single central queue
// assigns each function a dedicated core and the function runs to
// completion there without preemption. Unlike SCHED_FIFO, the core is
// reserved even while the function blocks on I/O — which avoids
// interference at the cost of core under-utilization, one of the
// trade-offs SFS's work-conserving design targets.
type CoreGranular struct {
	api      cpusim.API
	q        FIFOQueue
	reserved []*task.Task // per-core reservation (also covers blocked owners)
}

// NewCoreGranular returns a centralized core-granular scheduler.
func NewCoreGranular() *CoreGranular { return &CoreGranular{} }

// Name implements cpusim.Scheduler.
func (c *CoreGranular) Name() string { return "CoreGranular" }

// Bind implements cpusim.Scheduler.
func (c *CoreGranular) Bind(api cpusim.API) {
	c.api = api
	c.reserved = make([]*task.Task, api.NumCores())
}

// Enqueue implements cpusim.Scheduler.
func (c *CoreGranular) Enqueue(now simtime.Time, t *task.Task) {
	for core, owner := range c.reserved {
		if owner == t {
			// The task woke from I/O on its reserved core; have the
			// engine reconsider that core (it is idle by construction).
			c.api.Reschedule(core)
			return
		}
	}
	c.q.Push(t)
}

// PickNext implements cpusim.Scheduler: a core either resumes its
// reserved owner or claims the next queued function for exclusive use.
func (c *CoreGranular) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	if owner := c.reserved[core]; owner != nil {
		if owner.State == task.StateRunnable {
			return owner, 0
		}
		return nil, 0 // owner is blocked: the core stays reserved and idle
	}
	t := c.q.Pop()
	if t == nil {
		return nil, 0
	}
	c.reserved[core] = t
	return t, 0
}

// Descheduled implements cpusim.Scheduler.
func (c *CoreGranular) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	switch reason {
	case cpusim.ReasonFinished:
		c.reserved[core] = nil
	case cpusim.ReasonBlocked:
		// Core remains reserved for the sleeping owner.
	case cpusim.ReasonPreempted:
		// Core-granular functions are never preempted by policy; an
		// external preemption returns the task to the front of nothing —
		// keep the reservation so it resumes on its core.
	}
}

// WantsPreempt implements cpusim.Scheduler: never.
func (c *CoreGranular) WantsPreempt(simtime.Time, int) bool { return false }

// Lottery models classic lottery scheduling (Waldspurger & Weihl,
// OSDI '94), the proportional-share family the paper situates CFS in
// (§II-B): every quantum, a runnable task wins the core with
// probability proportional to its tickets (task weight).
type Lottery struct {
	api     cpusim.API
	r       *rng.RNG
	tasks   []*task.Task // runnable, unordered
	Quantum time.Duration
}

// NewLottery returns a lottery scheduler with the given quantum
// (10 ms if non-positive) and seed.
func NewLottery(quantum time.Duration, seed uint64) *Lottery {
	if quantum <= 0 {
		quantum = 10 * time.Millisecond
	}
	return &Lottery{Quantum: quantum, r: rng.New(seed)}
}

// Name implements cpusim.Scheduler.
func (l *Lottery) Name() string { return "Lottery" }

// Bind implements cpusim.Scheduler.
func (l *Lottery) Bind(api cpusim.API) { l.api = api }

// Enqueue implements cpusim.Scheduler.
func (l *Lottery) Enqueue(now simtime.Time, t *task.Task) { l.tasks = append(l.tasks, t) }

// PickNext implements cpusim.Scheduler: hold the lottery.
func (l *Lottery) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	if len(l.tasks) == 0 {
		return nil, 0
	}
	total := 0
	for _, t := range l.tasks {
		total += l.tickets(t)
	}
	draw := l.r.Intn(total)
	idx := 0
	for i, t := range l.tasks {
		draw -= l.tickets(t)
		if draw < 0 {
			idx = i
			break
		}
	}
	t := l.tasks[idx]
	l.tasks[idx] = l.tasks[len(l.tasks)-1]
	l.tasks = l.tasks[:len(l.tasks)-1]
	return t, l.Quantum
}

func (l *Lottery) tickets(t *task.Task) int {
	if t.Weight > 0 {
		return t.Weight
	}
	return task.DefaultWeight
}

// Descheduled implements cpusim.Scheduler.
func (l *Lottery) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	if reason == cpusim.ReasonPreempted {
		l.tasks = append(l.tasks, t)
	}
}

// WantsPreempt implements cpusim.Scheduler: lottery re-draws only at
// quantum boundaries.
func (l *Lottery) WantsPreempt(simtime.Time, int) bool { return false }
