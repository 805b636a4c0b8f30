// Package cpusim is a deterministic discrete-event simulator of a
// multicore machine running an OS task scheduler.
//
// The engine owns virtual time, the cores, and all task lifecycle
// accounting; a pluggable Scheduler (internal/sched, internal/core)
// decides which task runs where and for how long. The engine model is
// event-level rather than tick-level: when a task is dispatched the engine
// computes the next interesting instant (completion, I/O block, or slice
// expiry) and schedules a single event for it, which keeps multi-hour
// workloads with hundreds of thousands of slices cheap to simulate. A
// slice expiry the scheduler promises to renew (a Renewer) is not even
// an event: the engine holds it on its core and passes it in its turn.
package cpusim

import (
	"fmt"
	"math"
	"time"

	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// DescheduleReason explains why a task left a core.
type DescheduleReason int

// Deschedule reasons.
const (
	ReasonPreempted DescheduleReason = iota // slice expired or higher-priority task took the core
	ReasonBlocked                           // task started a blocking I/O op
	ReasonFinished                          // task completed
)

// String implements fmt.Stringer.
func (r DescheduleReason) String() string {
	switch r {
	case ReasonPreempted:
		return "preempted"
	case ReasonBlocked:
		return "blocked"
	case ReasonFinished:
		return "finished"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// API is the engine surface exposed to schedulers. Schedulers use it to
// read core state, schedule their own timer events (e.g. the SFS monitor
// and pollers), and request re-scheduling of a core.
type API interface {
	// Now returns the current virtual time.
	Now() simtime.Time
	// NumCores returns the number of simulated cores.
	NumCores() int
	// Running returns the task currently on core, or nil if idle.
	Running(core int) *task.Task
	// RanFor returns how long the current task on core has been running
	// in its current stint (0 if the core is idle).
	RanFor(core int) time.Duration
	// After schedules h with payload arg at now+d; the returned ref may
	// be cancelled. A scheduler builds each of its handlers once and
	// passes what differs per timer (say, a pointer to the worker it
	// concerns) as arg, so arming a timer allocates nothing.
	After(d time.Duration, h simtime.Handler, arg any) simtime.EventRef
	// Cancel cancels a pending event scheduled via After. Cancelling a
	// zero or stale ref is a safe no-op.
	Cancel(ev simtime.EventRef)
	// Reschedule asks the engine to reconsider core: if idle, PickNext is
	// invoked; if busy and the scheduler's WantsPreempt(core) returns
	// true, the current task is preempted first.
	Reschedule(core int)
}

// Scheduler is the policy plugged into the engine. Implementations own
// the runnable set; the engine owns running tasks and all accounting.
type Scheduler interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Bind hands the scheduler its engine API before the run starts.
	Bind(api API)
	// Enqueue delivers a task that just became runnable (arrival or I/O
	// wake). The engine has already marked it runnable.
	Enqueue(now simtime.Time, t *task.Task)
	// PickNext selects the task to run on core and the slice budget it
	// may use (0 means run until completion or block). Returning nil
	// leaves the core idle until the next Enqueue or Reschedule.
	PickNext(now simtime.Time, core int) (*task.Task, time.Duration)
	// Descheduled notifies the scheduler that t left core after running
	// for ran. On ReasonPreempted the task is runnable again and the
	// scheduler must retain it for a future PickNext. On ReasonBlocked
	// the task will be re-delivered via Enqueue when it wakes. On
	// ReasonFinished the task is gone.
	Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason DescheduleReason)
	// WantsPreempt reports whether the scheduler would rather run a
	// different runnable task on core right now. The engine calls it
	// after enqueues and reschedules; returning true triggers a
	// preemption followed by PickNext.
	WantsPreempt(now simtime.Time, core int) bool
}

// Renewer is implemented by schedulers that can tell ahead of time that
// a slice expiry is a pure renewal: the expiring task gets its core
// straight back, with the same slice. The engine then holds such a
// renewal on its core instead of as an event in its queue and applies
// it through Renewed at its turn (see Engine.StepEvent), which saves an
// event per renewal and changes no result. Implementing it is optional.
type Renewer interface {
	// Renews reports whether a slice ending on core now would hand the
	// core straight back to the task running there, and with which
	// slice. The answer may depend only on scheduler state, which the
	// engine re-checks after every event.
	Renews(core int) (slice time.Duration, ok bool)
	// Renewed applies exactly the bookkeeping of
	// Descheduled(ReasonPreempted) followed by a PickNext that re-picks
	// the task, for a renewal Renews promised after the task ran for ran.
	Renewed(core int, ran time.Duration)
}

// coreState tracks what a simulated core is doing.
type coreState struct {
	id       int // the core's index, for the stint-end handler
	cur      *task.Task
	runStart simtime.Time
	budget   time.Duration // slice given at dispatch (0 = unbounded)
	penalty  time.Duration // context-switch cost folded into this stint
	event    simtime.EventRef
	lastTask *task.Task    // previous occupant, for switch-cost accounting
	busyTime time.Duration // total core time consumed (incl. switch cost)
	// cpuBudget is the CPU progress the pending stint will charge when
	// its event fires. On a unit-speed host it equals the stint's wall
	// length minus the switch penalty; on speed-scaled hosts the two
	// differ (see Config.Speed), and charging the precomputed budget —
	// rather than re-deriving CPU from wall time — keeps completions
	// landing exactly on Service with no floating-point drift.
	cpuBudget time.Duration

	// fireReason is the pending stint's end reason, which the stint-end
	// event (its payload is the core) reads when it fires; only one
	// stint event is ever outstanding per core, so a single slot
	// suffices.
	fireReason DescheduleReason

	// A held renewal (see Renewer): the pending stint ends in a slice
	// renewal, kept here at heldAt under the queue sequence number its
	// event would have had, instead of as an event. chainEnd is when the
	// task's last stint ends if nothing disturbs its run of renewals;
	// nextHeld links the engine's list of held cores.
	held     bool
	heldAt   simtime.Time
	heldSeq  uint64
	chainEnd simtime.Time
	nextHeld int
}

// Config parameterizes an engine run.
type Config struct {
	Cores int
	// CtxSwitchCost models the direct cost of switching a core to a
	// different task: each such stint is lengthened by this amount
	// before the task makes CPU progress. Zero disables it.
	CtxSwitchCost time.Duration
	// Deadline aborts the simulation at this virtual time if tasks are
	// still unfinished (0 = no deadline). Used by tests to bound runs.
	Deadline simtime.Time
	// Speed is the host's relative CPU speed: a task's CPU demand is
	// consumed at Speed nanoseconds of progress per wall nanosecond, so
	// a 2.0 host finishes pure-CPU work in half the wall time and a 0.5
	// host in double. Task Service/CPUUsed stay in demand (unit-speed)
	// terms; only wall durations scale. Zero means 1.0 (every existing
	// caller is byte-unchanged); negative panics in NewEngine.
	// Heterogeneous-fleet simulations (internal/cluster Config.Speeds)
	// are the consumer.
	Speed float64
}

// Engine simulates a multicore machine under one scheduler.
type Engine struct {
	cfg     Config
	q       *simtime.Queue
	sched   Scheduler
	cores   []coreState
	pending int // tasks not yet finished
	tasks   []*task.Task

	// TotalCtxSwitches counts involuntary preemptions across all tasks.
	TotalCtxSwitches int64
	// TotalDispatches counts task placements on cores.
	TotalDispatches int64
	// SwitchOverhead accumulates core time lost to CtxSwitchCost.
	SwitchOverhead time.Duration
	// HeldRenewals counts slice renewals the engine passed on their core
	// without an event (see Renewer).
	HeldRenewals int64
	aborted      bool
	tracer       func(TraceEvent)
	speed        float64 // normalized Config.Speed (never 0)

	renewer Renewer // sched, when it implements Renewer
	// heldHead starts the list of cores holding a renewal, linked
	// through coreState.nextHeld in no order; -1 ends it.
	heldHead int
	// heldFirst remembers the held core whose renewal comes first in
	// (time, sequence) order, or is -1 when it must be found again: a
	// pass moves the first renewal later and an unhold may drop it.
	heldFirst int
	chainEnd  simtime.Time // earliest chainEnd among held cores, else Infinity

	// The engine's event handlers, built once in NewEngine: an arrival
	// and an I/O wake carry their task, a stint end its *coreState.
	onArrive, onWake, onStintEnd simtime.Handler
}

// NewEngine constructs an engine for the given scheduler. It panics on a
// non-positive core count.
func NewEngine(cfg Config, s Scheduler) *Engine {
	if cfg.Cores <= 0 {
		panic("cpusim: need at least one core")
	}
	if cfg.Speed < 0 || math.IsNaN(cfg.Speed) {
		panic("cpusim: negative speed factor")
	}
	if cfg.Speed == 0 {
		cfg.Speed = 1
	}
	e := &Engine{
		cfg:       cfg,
		q:         &simtime.Queue{},
		sched:     s,
		cores:     make([]coreState, cfg.Cores),
		speed:     cfg.Speed,
		heldHead:  -1,
		heldFirst: -1,
		chainEnd:  simtime.Infinity,
	}
	e.renewer, _ = s.(Renewer)
	for i := range e.cores {
		e.cores[i].id = i
	}
	e.onArrive = func(now simtime.Time, arg any) { e.arrive(now, arg.(*task.Task)) }
	e.onWake = func(now simtime.Time, arg any) { e.wake(now, arg.(*task.Task)) }
	e.onStintEnd = func(now simtime.Time, arg any) {
		c := arg.(*coreState)
		e.coreEvent(now, c.id, c.fireReason)
	}
	s.Bind(e)
	return e
}

// Now implements API.
func (e *Engine) Now() simtime.Time { return e.q.Now() }

// NumCores implements API.
func (e *Engine) NumCores() int { return len(e.cores) }

// Running implements API.
func (e *Engine) Running(core int) *task.Task { return e.cores[core].cur }

// RanFor implements API.
func (e *Engine) RanFor(core int) time.Duration {
	c := &e.cores[core]
	if c.cur == nil {
		return 0
	}
	return e.q.Now() - c.runStart
}

// After implements API.
func (e *Engine) After(d time.Duration, h simtime.Handler, arg any) simtime.EventRef {
	return e.q.After(d, h, arg)
}

// Cancel implements API.
func (e *Engine) Cancel(ev simtime.EventRef) { e.q.Cancel(ev) }

// Reschedule implements API.
func (e *Engine) Reschedule(core int) {
	now := e.q.Now()
	c := &e.cores[core]
	if c.cur == nil {
		e.dispatch(now, core)
		return
	}
	if e.sched.WantsPreempt(now, core) {
		e.preempt(now, core)
		e.dispatch(now, core)
	}
}

// Submit registers tasks with arrival events at their Arrival times
// (see SubmitAt).
func (e *Engine) Submit(tasks ...*task.Task) {
	for _, t := range tasks {
		e.SubmitAt(t.Arrival, t)
	}
}

// SubmitAt registers t with its arrival event at instant at, the
// instant its driver computed: a request's Arrival plus whatever
// delayed it on the way (a cold start, the network). t.Arrival is left
// as it is, so Turnaround stays end to end. A driver may submit
// between events; the event takes its queue sequence number now, and
// an instant before the engine's clock is taken as the clock
// (simtime.Queue.At clamps).
func (e *Engine) SubmitAt(at simtime.Time, t *task.Task) {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	e.tasks = append(e.tasks, t)
	e.pending++
	e.q.At(at, e.onArrive, t)
}

// Run drives the simulation until every submitted task finishes (or the
// configured deadline passes) and returns the makespan.
func (e *Engine) Run() simtime.Time {
	deadline := e.cfg.Deadline
	if deadline == 0 {
		deadline = simtime.Infinity
	}
	for e.pending > 0 && e.NextPendingEventTime() <= deadline {
		if !e.StepEvent() {
			break
		}
	}
	if e.pending > 0 {
		e.CatchUp(deadline)
		e.aborted = true
	}
	return e.q.Now()
}

// NextPendingEventTime returns the virtual time of the engine's
// earliest pending event that is not a held renewal: the queue's head,
// or the last stint of a task whose slice renewals are held. It is
// gated on unfinished work: it returns simtime.Infinity once every
// submitted task has completed, even if the event queue still holds
// timer events that would otherwise spin an external driver forever.
// It is the key every drive loop orders hosts by (internal/host), serial,
// batched and windowed: held renewals are never an instant a driver
// visits.
func (e *Engine) NextPendingEventTime() simtime.Time {
	if e.pending == 0 {
		return simtime.Infinity
	}
	return min(e.q.PeekTime(), e.chainEnd)
}

// StepEvent fires the engine's earliest pending event that is not a
// held renewal, advancing the engine's local clock to its time; the
// held renewals that precede it are passed first, in (time, sequence)
// order. It returns false when no events remain. Together with
// NextPendingEventTime, CatchUp and incremental Submit it lets a
// multi-host driver step many engines in lockstep: always step the
// engine whose next event is globally earliest, and submit tasks with
// arrivals at or after the global clock.
func (e *Engine) StepEvent() bool {
	if e.heldHead >= 0 {
		e.catchUp(simtime.Infinity)
	}
	if !e.q.Step() {
		return false
	}
	if e.heldHead >= 0 {
		e.recheckHeld()
	}
	return true
}

// CatchUp passes the held renewals due at or before at. A driver calls
// it once every event up to at has fired: before it submits work at
// instant at, and when a deadline at at aborts the run. The engine's
// state then matches an engine that fired each renewal as an event.
func (e *Engine) CatchUp(at simtime.Time) {
	if e.heldHead >= 0 {
		e.catchUp(at)
	}
}

// BusyCores returns the number of cores currently running a task.
func (e *Engine) BusyCores() int {
	n := 0
	for i := range e.cores {
		if e.cores[i].cur != nil {
			n++
		}
	}
	return n
}

// Aborted reports whether Run stopped at the deadline with unfinished
// tasks.
func (e *Engine) Aborted() bool { return e.aborted }

// Pending returns the number of unfinished tasks.
func (e *Engine) Pending() int { return e.pending }

// Tasks returns all submitted tasks (for metric extraction).
func (e *Engine) Tasks() []*task.Task { return e.tasks }

// Utilization returns the fraction of core-time spent running tasks over
// the interval [0, makespan].
func (e *Engine) Utilization() float64 {
	if e.q.Now() == 0 {
		return 0
	}
	return float64(e.BusyTime()) / (float64(e.q.Now()) * float64(len(e.cores)))
}

// BusyTime returns the total core time consumed across all cores
// (including context-switch cost). Multi-host drivers use it to compute
// utilization over a shared horizon instead of each engine's local
// clock.
func (e *Engine) BusyTime() time.Duration {
	var busy time.Duration
	for i := range e.cores {
		busy += e.cores[i].busyTime
	}
	return busy
}

// arrive handles a task arrival event.
func (e *Engine) arrive(now simtime.Time, t *task.Task) {
	t.MarkReady(now)
	e.sched.Enqueue(now, t)
	e.afterEnqueue(now, t)
}

// wake handles the end of t's I/O op: the task has slept since it
// blocked and becomes runnable again.
func (e *Engine) wake(now simtime.Time, t *task.Task) {
	t.MarkWoken(now)
	e.trace(TraceWake, -1, t)
	e.sched.Enqueue(now, t)
	e.afterEnqueue(now, t)
}

// afterEnqueue gives the scheduler a chance to place the new/woken task:
// first by filling idle cores, then via a single preemption if the
// scheduler asks for one.
func (e *Engine) afterEnqueue(now simtime.Time, t *task.Task) {
	for core := range e.cores {
		if e.cores[core].cur == nil {
			e.dispatch(now, core)
		}
	}
	// Cascade preemptions until the wakeup settles: a single enqueue can
	// displace a lower-priority task whose replacement again changes what
	// the scheduler wants elsewhere (e.g. an SFS FILTER wakeup bumping a
	// CFS task). Bounded by the core count per round.
	for round := 0; round <= len(e.cores) && t.State == task.StateRunnable; round++ {
		preempted := false
		for core := range e.cores {
			if e.cores[core].cur == nil {
				continue
			}
			if e.sched.WantsPreempt(now, core) {
				e.preempt(now, core)
				e.dispatch(now, core)
				preempted = true
				break
			}
		}
		if !preempted {
			break
		}
	}
}

// dispatch asks the scheduler for work on an idle core and starts it.
func (e *Engine) dispatch(now simtime.Time, core int) {
	if e.cores[core].cur != nil {
		panic("cpusim: dispatch on busy core")
	}
	t, slice := e.sched.PickNext(now, core)
	if t == nil {
		return
	}
	e.place(now, core, t, slice, true)
}

// place installs t on an idle core with the given slice budget and
// schedules the stint's end event. countDispatch is false when renewing a
// slice for the task that was already on the core.
func (e *Engine) place(now simtime.Time, core int, t *task.Task, slice time.Duration, countDispatch bool) {
	c := &e.cores[core]
	if c.cur != nil {
		panic("cpusim: place on busy core")
	}
	if t.State != task.StateRunnable {
		panic(fmt.Sprintf("cpusim: scheduler picked non-runnable %v in state %v", t, t.State))
	}
	t.MarkRunning(now, core)
	if countDispatch {
		e.TotalDispatches++
		e.trace(TraceDispatch, core, t)
	} else {
		// MarkRunning bumped Dispatches for what is really the same
		// stint; undo to keep dispatch counts meaningful.
		t.Dispatches--
	}
	c.cur = t
	c.runStart = now
	c.budget = slice
	c.penalty = 0
	if e.cfg.CtxSwitchCost > 0 && c.lastTask != t {
		c.penalty = e.cfg.CtxSwitchCost
		e.SwitchOverhead += c.penalty
	}
	c.lastTask = t

	// The stint ends at the earliest of completion, next I/O op, or
	// slice expiry — all offset by the switch penalty, during which the
	// task makes no CPU progress.
	demand, reason := e.demand(t)
	cpuFor, wallFor := demand, e.wallOf(demand)
	if cpuSlice, cut := e.cut(demand, slice); cut {
		cpuFor, wallFor, reason = cpuSlice, slice, ReasonPreempted
	}
	if cpuFor < 0 {
		panic("cpusim: negative run segment")
	}
	c.cpuBudget = cpuFor
	c.fireReason = reason
	// Only a stint that follows a renewal asks to be held: on a busy
	// host most stints a slice cuts end in a switch, and asking at every
	// dispatch costs more than the one event a chain's first renewal
	// takes.
	if reason == ReasonPreempted && !countDispatch && e.renews(core, slice) {
		e.hold(core, now+slice+c.penalty, now+c.penalty+e.chainLength(demand, slice, cpuFor))
		return
	}
	c.event = e.q.After(wallFor+c.penalty, e.onStintEnd, c)
}

// renews reports whether the scheduler promises that a slice expiry on
// core renews the running task's slice unchanged.
func (e *Engine) renews(core int, slice time.Duration) bool {
	if e.renewer == nil {
		return false
	}
	s, ok := e.renewer.Renews(core)
	return ok && s == slice
}

// demand returns the CPU t runs before it finishes or starts its next
// I/O op, and which of the two ends that run.
func (e *Engine) demand(t *task.Task) (time.Duration, DescheduleReason) {
	cpu, reason := t.Remaining(), ReasonFinished
	if io := t.NextIO(); io != nil {
		// <= so that an I/O op scheduled exactly at the end of the CPU
		// demand still blocks before the task is declared finished.
		if untilIO := io.At - t.CPUUsed; untilIO <= cpu {
			cpu, reason = untilIO, ReasonBlocked
		}
	}
	return cpu, reason
}

// cut reports whether a slice expiry ends a stint before its cpu demand
// runs out, and the CPU the slice retires. Demand lives in CPU terms
// and the slice in wall time, so the two are compared after converting
// demand to wall via the host speed (an identity on unit-speed hosts).
func (e *Engine) cut(cpu, slice time.Duration) (cpuSlice time.Duration, ok bool) {
	if slice <= 0 || slice >= e.wallOf(cpu) {
		return 0, false
	}
	// The floor of a sub-stint slice can reach zero CPU on very slow
	// hosts; clamp to 1ns so every slice makes progress and slice
	// renewal cannot spin at one instant.
	cpuSlice = max(e.cpuOf(slice), 1)
	return cpuSlice, cpuSlice < cpu
}

// chainLength returns the wall time, switch penalty excluded, that a
// run of cpu demand takes when every slice expiry renews: k stints of
// slice, each retiring cpuSlice, then a last stint of what is left. A
// slice cuts each stint whose demand exceeds cpuSlice, except that
// float rounding on a speed-scaled host can put such a demand's wall
// time exactly on the slice; cutting is monotone in demand, so only
// the last of the k stints can miss, and stepping back settles it.
func (e *Engine) chainLength(cpu, slice, cpuSlice time.Duration) time.Duration {
	k := (cpu - 1) / cpuSlice
	for k > 0 {
		if _, ok := e.cut(cpu-(k-1)*cpuSlice, slice); ok {
			break
		}
		k--
	}
	return k*slice + e.wallOf(cpu-k*cpuSlice)
}

// hold keeps core's pending renewal at instant at under a reserved
// sequence number; end is when its chain of renewals ends.
func (e *Engine) hold(core int, at, end simtime.Time) {
	c := &e.cores[core]
	c.held, c.heldAt, c.heldSeq, c.chainEnd = true, at, e.q.Reserve(), end
	if e.heldHead < 0 || (e.heldFirst >= 0 && e.heldBefore(core, e.heldFirst)) {
		e.heldFirst = core
	}
	c.nextHeld, e.heldHead = e.heldHead, core
	e.chainEnd = min(e.chainEnd, end)
}

// unhold drops core's held renewal. The caller queues it as an event,
// or the stint it ended is gone.
func (e *Engine) unhold(core int) {
	c := &e.cores[core]
	c.held = false
	if e.heldFirst == core {
		e.heldFirst = -1
	}
	link := &e.heldHead
	for *link != core {
		link = &e.cores[*link].nextHeld
	}
	*link = c.nextHeld
	e.chainEnd = simtime.Infinity
	for i := e.heldHead; i >= 0; i = e.cores[i].nextHeld {
		e.chainEnd = min(e.chainEnd, e.cores[i].chainEnd)
	}
}

// heldBefore reports whether held core a's renewal comes before held
// core b's in (time, sequence) order.
func (e *Engine) heldBefore(a, b int) bool {
	ca, cb := &e.cores[a], &e.cores[b]
	return ca.heldAt < cb.heldAt || (ca.heldAt == cb.heldAt && ca.heldSeq < cb.heldSeq)
}

// firstHeld returns the held core whose renewal comes first in (time,
// sequence) order, scanning the held list only when the remembered one
// is unknown. At least one core must hold a renewal.
func (e *Engine) firstHeld() int {
	if e.heldFirst >= 0 {
		return e.heldFirst
	}
	first := e.heldHead
	for i := e.cores[first].nextHeld; i >= 0; i = e.cores[i].nextHeld {
		if e.heldBefore(i, first) {
			first = i
		}
	}
	e.heldFirst = first
	return first
}

// catchUp passes, in (time, sequence) order, every held renewal due at
// or before until that precedes the queue's head. A pass that ends a
// chain queues the chain's last stint, which then bounds the passes
// after it.
func (e *Engine) catchUp(until simtime.Time) {
	for e.heldHead >= 0 {
		i := e.firstHeld()
		c := &e.cores[i]
		if c.heldAt > until || !e.q.Precedes(c.heldAt, c.heldSeq) {
			return
		}
		e.pass(i)
	}
}

// recheckHeld asks the scheduler, after an event, whether each held
// renewal is still one. A renewal the event spoiled — say, a task
// queued behind the one running — goes into the queue as the event it
// stood for, under its reserved sequence number, and fires through
// coreEvent like any slice expiry.
func (e *Engine) recheckHeld() {
	for core := e.heldHead; core >= 0; {
		c := &e.cores[core]
		next := c.nextHeld
		if !e.renews(core, c.budget) {
			c.event = e.q.AtSeq(c.heldAt, c.heldSeq, e.onStintEnd, c)
			e.unhold(core)
		}
		core = next
	}
}

// pass applies core's held renewal at its instant, exactly as coreEvent
// and place would apply the slice expiry it stands for: the stint's CPU
// is retired, the scheduler renews the slice, and the next stint starts
// with no switch penalty. That stint is held too while the chain lasts;
// the chain's last stint goes into the queue as a real event.
func (e *Engine) pass(core int) {
	c := &e.cores[core]
	t, now := c.cur, c.heldAt
	e.q.Pass(now)
	ran := now - c.runStart
	e.chargeRun(c, t, ran, c.cpuBudget)
	t.MarkReady(now)
	e.renewer.Renewed(core, ran)
	t.MarkRunning(now, core)
	t.Dispatches-- // a renewal is the same stint, as in place
	e.HeldRenewals++
	c.runStart = now
	c.penalty = 0
	cpu, reason := e.demand(t)
	if cpuSlice, cut := e.cut(cpu, c.budget); cut {
		c.cpuBudget = cpuSlice
		c.heldAt, c.heldSeq = now+c.budget, e.q.Reserve()
		if e.heldFirst == core {
			e.heldFirst = -1 // its next renewal may come after another core's
		}
		return
	}
	if now+e.wallOf(cpu) != c.chainEnd {
		panic("cpusim: renewal chain ends off its predicted instant")
	}
	e.unhold(core)
	c.cpuBudget = cpu
	c.fireReason = reason
	c.event = e.q.After(e.wallOf(cpu), e.onStintEnd, c)
}

// wallOf converts a CPU-demand duration to the wall time this host
// needs to execute it (identity at unit speed; ceiling division keeps
// wall events on whole nanoseconds without undershooting demand).
func (e *Engine) wallOf(cpu time.Duration) time.Duration {
	if e.speed == 1 || cpu <= 0 {
		return cpu
	}
	w := time.Duration(math.Ceil(float64(cpu) / e.speed))
	if w < 1 {
		w = 1
	}
	return w
}

// cpuOf converts a wall duration to the CPU demand this host retires
// in it (identity at unit speed; the float truncation never exceeds
// the exact product, so derived budgets stay conservative).
func (e *Engine) cpuOf(wall time.Duration) time.Duration {
	if e.speed == 1 || wall <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * e.speed)
}

// chargeRun updates accounting for a stint of wall length ran on core
// c that retired `useful` CPU demand. The switch penalty portion
// consumes core time but no task CPU progress.
func (e *Engine) chargeRun(c *coreState, t *task.Task, ran, useful time.Duration) {
	if useful < 0 {
		useful = 0
	}
	t.CPUUsed += useful
	c.busyTime += ran
	if t.CPUUsed > t.Service {
		panic("cpusim: task overran its service demand")
	}
}

// preempt forcibly removes the current task from core, returning it to
// the scheduler as runnable.
func (e *Engine) preempt(now simtime.Time, core int) {
	c := &e.cores[core]
	t := c.cur
	if t == nil {
		return
	}
	e.q.Cancel(c.event)
	if c.held {
		e.unhold(core)
	}
	ran := now - c.runStart
	// A mid-stint preemption retires the wall progress made so far,
	// converted to CPU demand; the conversion truncates, so clamp to
	// the stint's budget (which the cancelled event would have charged).
	useful := e.cpuOf(ran - c.penalty)
	if useful > c.cpuBudget {
		useful = c.cpuBudget
	}
	e.chargeRun(c, t, ran, useful)
	t.CtxSwitches++
	e.TotalCtxSwitches++
	e.trace(TracePreempt, core, t)
	t.MarkReady(now)
	c.cur = nil
	c.event = simtime.EventRef{}
	e.sched.Descheduled(now, core, t, ran, ReasonPreempted)
}

// coreEvent fires when the running task on core reaches the end of its
// current stint for the given reason.
func (e *Engine) coreEvent(now simtime.Time, core int, reason DescheduleReason) {
	c := &e.cores[core]
	t := c.cur
	if t == nil {
		panic("cpusim: core event on idle core")
	}
	ran := now - c.runStart
	// The stint event fired exactly when scheduled, so it retires
	// exactly the CPU budget place() computed — on speed-scaled hosts
	// this is what lands completions precisely on Service.
	e.chargeRun(c, t, ran, c.cpuBudget)
	c.cur = nil
	c.event = simtime.EventRef{}

	switch reason {
	case ReasonFinished:
		if t.Remaining() != 0 {
			panic("cpusim: finish event with CPU remaining")
		}
		t.MarkFinished(now)
		e.pending--
		e.trace(TraceFinish, core, t)
		e.sched.Descheduled(now, core, t, ran, ReasonFinished)
	case ReasonBlocked:
		io := t.NextIO()
		if io == nil {
			panic("cpusim: block event without pending IO")
		}
		t.PopIO()
		t.MarkSleeping(now)
		e.trace(TraceBlock, core, t)
		e.sched.Descheduled(now, core, t, ran, ReasonBlocked)
		e.q.After(io.Dur, e.onWake, t)
	case ReasonPreempted:
		// Slice expiry. The scheduler accounts the stint and picks the
		// successor; if it re-picks the same task this is a slice
		// renewal, not a context switch.
		t.MarkReady(now)
		e.sched.Descheduled(now, core, t, ran, ReasonPreempted)
		next, slice := e.sched.PickNext(now, core)
		if next == t {
			e.place(now, core, t, slice, false)
			return
		}
		t.CtxSwitches++
		e.TotalCtxSwitches++
		e.trace(TracePreempt, core, t)
		if next != nil {
			e.place(now, core, next, slice, true)
		}
		return
	}
	e.dispatch(now, core)
}
