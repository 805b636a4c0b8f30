// Package core implements SFS, the paper's contribution: a user-space
// two-level function scheduler that approximates SRTF by combining a
// FIFO-like, dynamically time-sliced FILTER policy (level one, mapped to
// SCHED_FIFO in the real system) with CFS (level two) for functions that
// exhaust their slice.
//
// The scheduler plugs into the cpusim engine exactly like the Linux
// policy models in internal/sched, but internally it reproduces the
// architecture of Figure 4 of the paper:
//
//   - a single global queue of function requests (work conserving, load
//     balanced by construction);
//   - one SFS worker per core that fetches requests whenever free and
//     runs them in FILTER mode, bounded by the dynamic time slice S;
//   - a monitor that recomputes S = mean(IAT of last N requests) × cores
//     every N enqueued requests (§V-C);
//   - an I/O poller that observes running→sleep transitions only at poll
//     boundaries, stops slice timekeeping, and re-enqueues woken
//     functions to the global queue (§V-D);
//   - an overload detector that temporarily routes requests straight to
//     CFS when the head-of-queue delay exceeds O × S (§V-E).
package core

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/sched"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/stats"
	"github.com/serverless-sched/sfs/internal/task"
)

// Config holds the SFS tunables, with defaults matching the paper.
type Config struct {
	// WindowSize is N, the number of recent inter-arrival times the
	// monitor averages, and also the recomputation period (default 100).
	WindowSize int
	// InitialSlice seeds S before the first window recomputation
	// (default 100 ms).
	InitialSlice time.Duration
	// FixedSlice, when positive, disables adaptation and pins S (used by
	// the Fig 9 sensitivity study).
	FixedSlice time.Duration
	// OverloadFactor is O: a head-of-queue delay above O × S triggers
	// hybrid CFS routing (default 3).
	OverloadFactor float64
	// PollInterval is the kernel-status polling period (default 4 ms).
	PollInterval time.Duration
	// IOAware enables block detection via polling; when false SFS is
	// "I/O-oblivious" (Fig 11): slice time keeps ticking through I/O.
	IOAware bool
	// Hybrid enables the overload fallback to CFS; when false SFS is
	// "SFS w/o hybrid" (Fig 12).
	Hybrid bool
	// SecondLevel optionally replaces the second-level scheduler
	// entirely (SFS is OS-scheduler-agnostic, §V-A); nil uses CFS.
	// Used by the EEVDF ablation.
	SecondLevel cpusim.Scheduler
	// PerCoreQueue replaces the single global queue with per-worker
	// queues (round-robin request assignment, no stealing). The paper
	// rejects this design for its load imbalance and core
	// under-utilization (§VI); the ablation quantifies that argument.
	PerCoreQueue bool
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation.
func DefaultConfig() Config {
	return Config{
		WindowSize:     100,
		InitialSlice:   100 * time.Millisecond,
		OverloadFactor: 3,
		PollInterval:   4 * time.Millisecond,
		IOAware:        true,
		Hybrid:         true,
	}
}

// workerState enumerates what an SFS worker is doing.
type workerState int

const (
	wFree          workerState = iota // ready to fetch from the global queue
	wRunning                          // its FILTER task is on the core
	wBlockWait                        // task blocked; poll has not noticed yet
	wAttachedSleep                    // (oblivious mode) task blocked, slice ticking
	wResumePending                    // task woke; waiting to get its core back
)

func (s workerState) String() string {
	switch s {
	case wFree:
		return "free"
	case wRunning:
		return "running"
	case wBlockWait:
		return "block-wait"
	case wAttachedSleep:
		return "attached-sleep"
	case wResumePending:
		return "resume-pending"
	default:
		return fmt.Sprintf("worker(%d)", int(s))
	}
}

// worker is the per-core SFS scheduling worker (a goroutine in the real
// implementation).
type worker struct {
	core      int // the worker's core, for its timers' handlers
	state     workerState
	t         *task.Task
	ev        simtime.EventRef // pending detect (aware) or deadline (oblivious) event
	busySince simtime.Time
	busyTime  time.Duration // accumulated FILTER-mode core time (for the overhead model)
}

// ent is SFS's per-task scheduling state.
type ent struct {
	seq           int          // request submission ID (first-enqueue order)
	enq           simtime.Time // current global-queue enqueue timestamp
	sliceAssigned bool
	deadline      simtime.Time // oblivious mode: wall-clock slice deadline
	blockStart    simtime.Time
	worker        int // index of attached worker, -1 if none
	queue         int // assigned queue (always 0 with the global queue)
	delayRecorded bool
}

// SlicePoint is one sample of the monitor's adaptation timeline (Fig 10).
type SlicePoint struct {
	T       simtime.Time
	S       time.Duration
	MeanIAT time.Duration
}

// DelayPoint is one request's global-queue delay sample (Fig 12a).
type DelayPoint struct {
	Seq   int
	T     simtime.Time
	Delay time.Duration
}

// Stats aggregates SFS-internal counters for the experiments.
type Stats struct {
	SliceTimeline     []SlicePoint
	QueueDelays       []DelayPoint
	Demotions         int   // FILTER slice exhaustions demoted to CFS
	OverloadRouted    int   // requests routed directly to CFS by the hybrid path
	FilterCompletions int   // requests that finished entirely in FILTER mode
	Requests          int   // unique requests enqueued
	SchedulingOps     int64 // scheduling decisions taken (overhead model input)
	FilterBusy        time.Duration
}

// SFS is the Smart Function Scheduler. It implements cpusim.Scheduler.
type SFS struct {
	cfg     Config
	api     cpusim.API
	cfs     cpusim.Scheduler // second level; CFS unless overridden
	renewer cpusim.Renewer   // cfs, when it implements cpusim.Renewer
	workers []worker

	// FIFO request queues: one global queue by default, or one per
	// worker in the PerCoreQueue ablation.
	queues []sched.FIFOQueue

	s           time.Duration // current time slice parameter S
	window      *stats.Window
	lastArrival simtime.Time
	haveArrival bool
	sinceRecalc int

	ents map[*task.Task]*ent
	free []*ent // ents of tasks SFS no longer schedules, for reuse

	// The workers' timer handlers, built once in New; each timer
	// carries its *worker.
	onBlockDetected, onObliviousDeadline simtime.Handler

	// Stat holds the run's internal counters and timelines.
	Stat Stats
}

// New constructs an SFS scheduler with the given configuration; zero
// fields are defaulted.
func New(cfg Config) *SFS {
	def := DefaultConfig()
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = def.WindowSize
	}
	if cfg.InitialSlice <= 0 {
		cfg.InitialSlice = def.InitialSlice
	}
	if cfg.OverloadFactor <= 0 {
		cfg.OverloadFactor = def.OverloadFactor
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = def.PollInterval
	}
	second := cfg.SecondLevel
	if second == nil {
		second = sched.NewCFS()
	}
	s := &SFS{
		cfg:    cfg,
		cfs:    second,
		window: stats.NewWindow(cfg.WindowSize),
		ents:   make(map[*task.Task]*ent),
	}
	s.renewer, _ = second.(cpusim.Renewer)
	s.onBlockDetected = func(now simtime.Time, arg any) { s.blockDetected(now, arg.(*worker)) }
	s.onObliviousDeadline = func(now simtime.Time, arg any) { s.obliviousDeadline(now, arg.(*worker)) }
	s.s = cfg.InitialSlice
	if cfg.FixedSlice > 0 {
		s.s = cfg.FixedSlice
	}
	return s
}

// Name implements cpusim.Scheduler.
func (s *SFS) Name() string {
	switch {
	case s.cfg.SecondLevel != nil:
		return "SFS-on-" + s.cfg.SecondLevel.Name()
	case !s.cfg.Hybrid:
		return "SFS-noHybrid"
	case !s.cfg.IOAware:
		return "SFS-ioOblivious"
	case s.cfg.FixedSlice > 0:
		return fmt.Sprintf("SFS-fixed%dms", s.cfg.FixedSlice/time.Millisecond)
	case s.cfg.PerCoreQueue:
		return "SFS-perCoreQueue"
	default:
		return "SFS"
	}
}

// Bind implements cpusim.Scheduler.
func (s *SFS) Bind(api cpusim.API) {
	s.api = api
	s.cfs.Bind(api)
	s.workers = make([]worker, api.NumCores())
	for i := range s.workers {
		s.workers[i].core = i
	}
	nq := 1
	if s.cfg.PerCoreQueue {
		nq = api.NumCores()
	}
	s.queues = make([]sched.FIFOQueue, nq)
	s.Stat.SliceTimeline = append(s.Stat.SliceTimeline, SlicePoint{T: 0, S: s.s})
}

// queueFor returns the queue index serving the given core.
func (s *SFS) queueFor(core int) int {
	if s.cfg.PerCoreQueue {
		return core
	}
	return 0
}

// Slice returns the current time slice parameter S.
func (s *SFS) Slice() time.Duration { return s.s }

// entOf returns (creating if needed) the SFS state for t. A new state
// reuses a dropped one when the free list has any, fully reset.
func (s *SFS) entOf(t *task.Task) *ent {
	e := s.ents[t]
	if e == nil {
		if n := len(s.free); n > 0 {
			e = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			e = new(ent)
		}
		*e = ent{worker: -1, seq: -1}
		s.ents[t] = e
	}
	return e
}

// dropEnt forgets t's SFS state once SFS no longer schedules t: it
// finished in FILTER mode or now belongs to the second level.
func (s *SFS) dropEnt(t *task.Task, e *ent) {
	delete(s.ents, t)
	s.free = append(s.free, e)
}

// Enqueue implements cpusim.Scheduler: requests enter the global queue;
// demoted tasks go straight to CFS; attached wakes resume their worker.
func (s *SFS) Enqueue(now simtime.Time, t *task.Task) {
	s.Stat.SchedulingOps++
	if t.DemotedToCFS {
		s.cfs.Enqueue(now, t)
		return
	}
	e := s.entOf(t)

	// An I/O wake of a task still attached to a worker.
	if e.worker >= 0 {
		w := &s.workers[e.worker]
		if w.t != t {
			panic("core: worker/task attachment out of sync")
		}
		switch w.state {
		case wBlockWait:
			// Aware mode, but the task woke before the poll noticed the
			// block: the worker's timer never stopped, so the blocked
			// wall time is charged against the slice and the task
			// resumes in place.
			s.api.Cancel(w.ev)
			w.ev = simtime.EventRef{}
			t.SliceLeft -= now - e.blockStart
			if t.SliceLeft <= 0 {
				s.detach(w, e)
				s.demote(now, t, e)
				return
			}
			w.state = wResumePending
		case wAttachedSleep:
			// Oblivious mode: slice deadline is wall-clock; resume if
			// any budget remains.
			s.api.Cancel(w.ev)
			w.ev = simtime.EventRef{}
			if now >= e.deadline {
				s.detach(w, e)
				s.demote(now, t, e)
				return
			}
			w.state = wResumePending
		default:
			panic(fmt.Sprintf("core: wake for attached task but worker is %v", w.state))
		}
		return
	}

	// New request or a detached post-I/O re-enqueue.
	if e.seq < 0 {
		e.seq = s.Stat.Requests
		s.Stat.Requests++
		if s.cfg.PerCoreQueue {
			// Round-robin assignment, as a front-end load balancer
			// without queue-depth knowledge would do.
			e.queue = e.seq % len(s.queues)
		}
		if s.haveArrival {
			s.observeIAT(now, now-s.lastArrival)
		}
		s.lastArrival = now
		s.haveArrival = true
	}
	e.enq = now
	s.queues[e.queue].Push(t)
}

// observeIAT feeds the monitor's sliding window and recomputes S every
// WindowSize requests (§V-C).
func (s *SFS) observeIAT(now simtime.Time, iat time.Duration) {
	s.window.Push(iat)
	s.sinceRecalc++
	if s.sinceRecalc < s.cfg.WindowSize {
		return
	}
	s.sinceRecalc = 0
	mean := s.window.Mean()
	if s.cfg.FixedSlice <= 0 {
		s.s = mean * time.Duration(s.api.NumCores())
		if s.s <= 0 {
			s.s = time.Millisecond
		}
	}
	s.Stat.SliceTimeline = append(s.Stat.SliceTimeline, SlicePoint{T: now, S: s.s, MeanIAT: mean})
}

// recordDelay records a request's first observed global-queue delay.
func (s *SFS) recordDelay(now simtime.Time, t *task.Task, e *ent) {
	if e.delayRecorded {
		return
	}
	e.delayRecorded = true
	delay := now - e.enq
	s.Stat.QueueDelays = append(s.Stat.QueueDelays, DelayPoint{Seq: e.seq, T: now, Delay: delay})
}

// demote hands a FILTER task over to the CFS level permanently.
func (s *SFS) demote(now simtime.Time, t *task.Task, e *ent) {
	s.dropEnt(t, e)
	t.DemotedToCFS = true
	s.Stat.Demotions++
	if t.State == task.StateRunnable {
		s.cfs.Enqueue(now, t)
	}
	// Sleeping tasks are routed to CFS by Enqueue when they wake.
}

// detach breaks the worker/task attachment.
func (s *SFS) detach(w *worker, e *ent) {
	w.t = nil
	w.state = wFree
	e.worker = -1
}

// overloaded reports whether a request that has waited delay should be
// routed straight to CFS under the hybrid policy (§V-E).
func (s *SFS) overloaded(delay time.Duration) bool {
	if !s.cfg.Hybrid {
		return false
	}
	return float64(delay) > s.cfg.OverloadFactor*float64(s.s)
}

// PickNext implements cpusim.Scheduler.
func (s *SFS) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	s.Stat.SchedulingOps++
	w := &s.workers[core]
	switch w.state {
	case wResumePending:
		t := w.t
		e := s.entOf(t)
		budget := t.SliceLeft
		if !s.cfg.IOAware {
			budget = e.deadline - now
		}
		if budget <= 0 {
			s.detach(w, e)
			s.demote(now, t, e)
			break // fall to the free path
		}
		w.state = wRunning
		w.busySince = now
		return t, budget
	case wBlockWait, wAttachedSleep:
		// Worker occupied; CFS sneaks in on this core (work
		// conservation, §V-D).
		return s.cfs.PickNext(now, core)
	case wRunning:
		// The engine believes the core is free, so the worker's task
		// must have just left via Descheduled; treat as free.
		w.state = wFree
		w.t = nil
	}

	q := &s.queues[s.queueFor(core)]
	for {
		t := q.Pop()
		if t == nil {
			return s.cfs.PickNext(now, core)
		}
		e := s.entOf(t)
		delay := now - e.enq
		s.recordDelay(now, t, e)
		if s.overloaded(delay) {
			// Transient overload: bypass FILTER and let CFS drain the
			// backlog (§V-E).
			s.dropEnt(t, e)
			t.DemotedToCFS = true
			s.Stat.OverloadRouted++
			s.cfs.Enqueue(now, t)
			continue
		}
		if !e.sliceAssigned {
			e.sliceAssigned = true
			t.SliceLeft = s.s
			if !s.cfg.IOAware {
				e.deadline = now + s.s
			}
		}
		budget := t.SliceLeft
		if !s.cfg.IOAware {
			budget = e.deadline - now
		}
		if budget <= 0 {
			s.demote(now, t, e)
			continue
		}
		w.t = t
		w.state = wRunning
		w.busySince = now
		e.worker = core
		return t, budget
	}
}

// nextPollDelay returns how long after now the polling loop will next
// observe the task's kernel state (§V-D): polls happen on a fixed global
// grid with period PollInterval.
func (s *SFS) nextPollDelay(now simtime.Time) time.Duration {
	p := s.cfg.PollInterval
	rem := now % p
	return p - rem
}

// Descheduled implements cpusim.Scheduler.
func (s *SFS) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	s.Stat.SchedulingOps++
	if t.DemotedToCFS {
		s.cfs.Descheduled(now, core, t, ran, reason)
		return
	}
	w := &s.workers[core]
	if w.t != t || w.state != wRunning {
		panic(fmt.Sprintf("core: FILTER task descheduled but worker is %v", w.state))
	}
	e := s.entOf(t)
	w.busyTime += now - w.busySince
	s.Stat.FilterBusy += now - w.busySince
	t.SliceLeft -= ran

	switch reason {
	case cpusim.ReasonFinished:
		s.Stat.FilterCompletions++
		s.detach(w, e)
		s.dropEnt(t, e)
	case cpusim.ReasonPreempted:
		// Slice exhausted (the engine only preempts FILTER tasks at
		// their budget; SFS never volunteers them for preemption).
		s.detach(w, e)
		s.demote(now, t, e)
	case cpusim.ReasonBlocked:
		e.blockStart = now
		if s.cfg.IOAware {
			// The poller will notice the sleep at the next poll tick,
			// stop timekeeping, record the unused slice, and free the
			// worker. Until then the worker waits and only CFS can use
			// the core.
			w.state = wBlockWait
			w.ev = s.api.After(s.nextPollDelay(now), s.onBlockDetected, w)
		} else {
			// Oblivious mode: slice keeps ticking on the wall clock; if
			// the deadline passes while the task sleeps it is demoted.
			w.state = wAttachedSleep
			wait := e.deadline - now
			if wait < 0 {
				wait = 0
			}
			w.ev = s.api.After(wait, s.onObliviousDeadline, w)
		}
	}
}

// blockDetected fires at the poll tick after w's FILTER task blocked
// (aware mode): the worker charges the blocked-so-far wall time against
// the slice, releases the task, and fetches new work.
func (s *SFS) blockDetected(now simtime.Time, w *worker) {
	s.Stat.SchedulingOps++
	if w.state != wBlockWait {
		return // the task woke first and the event should have been cancelled
	}
	t := w.t
	e := s.entOf(t)
	w.ev = simtime.EventRef{}
	// Timekeeping ran from the block until this detection.
	t.SliceLeft -= now - e.blockStart
	s.detach(w, e)
	if t.SliceLeft <= 0 {
		s.demote(now, t, e)
	}
	// The freed worker may immediately fetch the next request,
	// preempting any CFS task that sneaked onto the core.
	s.api.Reschedule(w.core)
}

// obliviousDeadline fires when the wall-clock slice deadline of w's
// attached sleeping task passes in I/O-oblivious mode.
func (s *SFS) obliviousDeadline(now simtime.Time, w *worker) {
	s.Stat.SchedulingOps++
	if w.state != wAttachedSleep {
		return
	}
	t := w.t
	e := s.entOf(t)
	w.ev = simtime.EventRef{}
	s.detach(w, e)
	s.demote(now, t, e)
	s.api.Reschedule(w.core)
}

// WantsPreempt implements cpusim.Scheduler: FILTER work preempts CFS-mode
// tasks (SCHED_FIFO has higher static priority than SCHED_NORMAL), but
// FILTER tasks themselves are never preempted by SFS.
func (s *SFS) WantsPreempt(now simtime.Time, core int) bool {
	cur := s.api.Running(core)
	if cur == nil {
		return false
	}
	w := &s.workers[core]
	if w.state == wRunning && w.t == cur {
		return false // never preempt a FILTER task
	}
	if w.state == wResumePending {
		return true // a woken FIFO task reclaims its core from CFS
	}
	if w.state == wFree {
		if head := s.queues[s.queueFor(core)].Peek(); head != nil {
			e := s.entOf(head)
			if !s.overloaded(now - e.enq) {
				return true // fresh FILTER work beats a CFS task
			}
		}
	}
	// Delegate to CFS's own wakeup-preemption logic for CFS-vs-CFS.
	return s.cfs.WantsPreempt(now, core)
}

// Renews implements cpusim.Renewer: a second-level task's slice renews
// when the core's worker would fetch no FILTER work in its place — the
// worker is free with an empty queue, or parked on a blocked FILTER
// task — and the second level renews it. In those worker states only a
// second-level task can hold the core (a FILTER task runs with its
// worker in wRunning), so the second level's answer is about that task.
// SFS declines when its second level is not a cpusim.Renewer.
func (s *SFS) Renews(core int) (time.Duration, bool) {
	if s.renewer == nil {
		return 0, false
	}
	switch s.workers[core].state {
	case wFree:
		if s.queues[s.queueFor(core)].Len() > 0 {
			return 0, false
		}
	case wBlockWait, wAttachedSleep:
	default:
		return 0, false
	}
	return s.renewer.Renews(core)
}

// Renewed implements cpusim.Renewer: the Descheduled and PickNext a
// renewal stands for each count as a scheduling op, and the second
// level renews.
func (s *SFS) Renewed(core int, ran time.Duration) {
	s.Stat.SchedulingOps += 2
	s.renewer.Renewed(core, ran)
}
