// Package task defines the unit of work scheduled by every scheduler in
// this repository: a function invocation with a CPU demand, optional I/O
// operations, and full lifecycle accounting (waiting time, context
// switches, run-time effectiveness).
package task

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/simtime"
)

// State is the kernel-level lifecycle state of a task, mirroring the
// process states SFS polls via gopsutil in the paper (§V-D).
type State int

// Task states.
const (
	StateNew      State = iota // created, not yet arrived
	StateRunnable              // waiting in a runqueue
	StateRunning               // executing on a core
	StateSleeping              // blocked on I/O
	StateFinished              // returned
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateFinished:
		return "finished"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// IOOp is a blocking I/O operation that begins once the task has consumed
// At of CPU time and lasts Dur of wall-clock time.
type IOOp struct {
	At  time.Duration // cumulative CPU time at which the op starts
	Dur time.Duration // wall-clock duration of the operation
}

// DefaultWeight is the CFS load weight of a nice-0 task.
const DefaultWeight = 1024

// Task is one function invocation request.
//
// The scheduling fields (DemotedToCFS, SliceLeft) are owned by SFS, the
// one scheduler that keeps per-task state on the Task; the engine never
// touches them. Every other scheduler keeps its per-task state in its
// own entities.
type Task struct {
	ID      int
	App     string // function application name, e.g. "fib26", "md", "sa"
	Arrival simtime.Time
	Service time.Duration // total CPU demand
	IOOps   []IOOp        // sorted ascending by At; At values must be <= Service
	Weight  int           // CFS load weight; DefaultWeight if zero

	// --- engine accounting ---
	State        State
	CPUUsed      time.Duration // CPU time consumed so far
	IOTime       time.Duration // wall time spent blocked
	WaitTime     time.Duration // time spent runnable but not running
	Start        simtime.Time  // first time on a core (-1 before that)
	Finish       simtime.Time  // completion time (-1 before that)
	CtxSwitches  int           // involuntary preemptions where another task took over
	Dispatches   int           // times placed on a core
	Migrations   int           // dispatches on a different core than last time
	nextIO       int           // index of next pending IOOp
	lastReady    simtime.Time  // when the task last became runnable
	lastCore     int           // core of previous dispatch (-1 initially)
	wokeAt       simtime.Time  // when the task last woke from sleep
	DemotedToCFS bool          // true once a FILTER task is demoted (SFS only)

	// --- scheduler-owned scratch ---
	SliceLeft time.Duration // SFS: remaining FILTER slice budget
}

// New constructs a task with the mandatory fields set and accounting
// initialized.
func New(id int, arrival simtime.Time, service time.Duration) *Task {
	return &Task{
		ID:       id,
		Arrival:  arrival,
		Service:  service,
		Weight:   DefaultWeight,
		Start:    -1,
		Finish:   -1,
		lastCore: -1,
	}
}

// WithIO appends an I/O op and returns the task for chaining. Ops must be
// added in ascending At order.
func (t *Task) WithIO(at, dur time.Duration) *Task {
	if n := len(t.IOOps); n > 0 && t.IOOps[n-1].At > at {
		panic("task: IO ops must be added in ascending At order")
	}
	t.IOOps = append(t.IOOps, IOOp{At: at, Dur: dur})
	return t
}

// NextIO returns the next pending I/O op, or nil if none remain.
func (t *Task) NextIO() *IOOp {
	if t.nextIO >= len(t.IOOps) {
		return nil
	}
	return &t.IOOps[t.nextIO]
}

// PopIO consumes the next pending I/O op.
func (t *Task) PopIO() { t.nextIO++ }

// Remaining returns the CPU time the task still needs.
func (t *Task) Remaining() time.Duration { return t.Service - t.CPUUsed }

// TotalIO returns the sum of all I/O op durations.
func (t *Task) TotalIO() time.Duration {
	var sum time.Duration
	for _, op := range t.IOOps {
		sum += op.Dur
	}
	return sum
}

// IdealDuration is the turnaround the task would see on an uncontended
// machine: all CPU plus all I/O, no waiting. This is the paper's IDEAL
// baseline.
func (t *Task) IdealDuration() time.Duration { return t.Service + t.TotalIO() }

// Turnaround returns Finish-Arrival, or -1 if unfinished.
func (t *Task) Turnaround() time.Duration {
	if t.Finish < 0 {
		return -1
	}
	return t.Finish - t.Arrival
}

// RTE is the paper's run-time effectiveness metric (§III): the ratio of
// the function's service time (aggregate CPU time under zero interference)
// to its end-to-end turnaround time. 1.0 is optimal for pure-CPU tasks;
// tasks with I/O have a best case of Service/(Service+IO).
func (t *Task) RTE() float64 {
	ta := t.Turnaround()
	if ta <= 0 {
		return 0
	}
	return float64(t.Service) / float64(ta)
}

// MarkReady records that the task became runnable at now (arrival, wake,
// or preemption); waiting time accrues from this instant.
func (t *Task) MarkReady(now simtime.Time) {
	t.State = StateRunnable
	t.lastReady = now
}

// MarkRunning records dispatch on a core, accruing waiting time.
func (t *Task) MarkRunning(now simtime.Time, core int) {
	if t.Start < 0 {
		t.Start = now
	}
	t.WaitTime += now - t.lastReady
	if t.lastCore >= 0 && t.lastCore != core {
		t.Migrations++
	}
	t.lastCore = core
	t.Dispatches++
	t.State = StateRunning
}

// MarkSleeping records an I/O block beginning at now.
func (t *Task) MarkSleeping(now simtime.Time) {
	t.State = StateSleeping
	t.wokeAt = -1
	_ = now
}

// MarkWoken records the end of an I/O block of duration d at now.
func (t *Task) MarkWoken(now simtime.Time, d time.Duration) {
	t.IOTime += d
	t.wokeAt = now
	t.MarkReady(now)
}

// MarkFinished finalizes the task at now.
func (t *Task) MarkFinished(now simtime.Time) {
	t.State = StateFinished
	t.Finish = now
}

// LastCore returns the core of the task's most recent dispatch, or -1.
func (t *Task) LastCore() int { return t.lastCore }

// Validate checks structural invariants of the task definition, returning
// an error describing the first violation.
func (t *Task) Validate() error {
	if t.Service <= 0 {
		return fmt.Errorf("task %d: non-positive service time %v", t.ID, t.Service)
	}
	if t.Arrival < 0 {
		return fmt.Errorf("task %d: negative arrival %v", t.ID, t.Arrival)
	}
	prev := time.Duration(-1)
	for i, op := range t.IOOps {
		if op.At < 0 || op.At > t.Service {
			return fmt.Errorf("task %d: IO op %d at %v outside service interval [0,%v]", t.ID, i, op.At, t.Service)
		}
		if op.Dur < 0 {
			return fmt.Errorf("task %d: IO op %d negative duration %v", t.ID, i, op.Dur)
		}
		if op.At < prev {
			return fmt.Errorf("task %d: IO ops out of order at index %d", t.ID, i)
		}
		prev = op.At
	}
	return nil
}

// String implements fmt.Stringer.
func (t *Task) String() string {
	return fmt.Sprintf("task{id=%d app=%s arr=%v svc=%v io=%d}", t.ID, t.App, t.Arrival, t.Service, len(t.IOOps))
}
