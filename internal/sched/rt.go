package sched

import (
	"time"

	"github.com/serverless-sched/sfs/internal/cpusim"
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// FIFOQueue is a first-in, first-out queue of tasks with O(1)
// amortized operations. It is the run queue of FIFO, RR and
// CoreGranular, and SFS's request queue. The zero value is an empty
// queue.
type FIFOQueue struct {
	items []*task.Task
	head  int
}

// Len returns the number of queued tasks.
func (q *FIFOQueue) Len() int { return len(q.items) - q.head }

// Push appends t at the tail.
func (q *FIFOQueue) Push(t *task.Task) { q.items = append(q.items, t) }

// PushFront re-inserts a task at the head (used for preempted RT tasks,
// which keep their position per POSIX).
func (q *FIFOQueue) PushFront(t *task.Task) {
	if q.head > 0 {
		q.head--
		q.items[q.head] = t
		return
	}
	q.items = append([]*task.Task{t}, q.items...)
}

// Pop removes and returns the head, or nil when the queue is empty.
// Once more than 1,024 popped slots make up over half the slice, the
// live tail moves to the front of the same array, so a long-lived queue
// neither grows without bound nor allocates to shrink.
func (q *FIFOQueue) Pop() *task.Task {
	if q.Len() == 0 {
		return nil
	}
	t := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head > 1024 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return t
}

// Peek returns the head without removing it, or nil when the queue is
// empty.
func (q *FIFOQueue) Peek() *task.Task {
	if q.Len() == 0 {
		return nil
	}
	return q.items[q.head]
}

// FIFO models SCHED_FIFO with a single priority level: tasks run in
// arrival order until they finish or block; there is no time slicing.
// This exhibits the paper's "convoy effect" (§IV-B): short functions are
// stuck behind long ones.
type FIFO struct {
	api cpusim.API
	q   FIFOQueue
}

// NewFIFO returns a SCHED_FIFO model.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements cpusim.Scheduler.
func (f *FIFO) Name() string { return "FIFO" }

// Bind implements cpusim.Scheduler.
func (f *FIFO) Bind(api cpusim.API) { f.api = api }

// Enqueue implements cpusim.Scheduler. Per POSIX, a task that blocks
// loses its queue position and is appended at the tail when it wakes;
// new arrivals also join the tail.
func (f *FIFO) Enqueue(now simtime.Time, t *task.Task) { f.q.Push(t) }

// PickNext implements cpusim.Scheduler: head of queue, unbounded slice.
func (f *FIFO) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	return f.q.Pop(), 0
}

// Descheduled implements cpusim.Scheduler.
func (f *FIFO) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	if reason == cpusim.ReasonPreempted {
		// Equal-priority FIFO tasks are never sliced; a preemption can
		// only come from an external actor, in which case the task keeps
		// its head-of-line position.
		f.q.PushFront(t)
	}
}

// WantsPreempt implements cpusim.Scheduler: equal-priority FIFO tasks
// never preempt each other.
func (f *FIFO) WantsPreempt(now simtime.Time, core int) bool { return false }

// DefaultRRSlice is Linux's default SCHED_RR quantum
// (/proc/sys/kernel/sched_rr_timeslice_ms = 100).
const DefaultRRSlice = 100 * time.Millisecond

// RR models SCHED_RR with a single priority level: FIFO order, but each
// task runs at most one quantum before rotating to the tail.
type RR struct {
	api   cpusim.API
	q     FIFOQueue
	Slice time.Duration
}

// NewRR returns a SCHED_RR model with the given quantum (DefaultRRSlice
// if non-positive).
func NewRR(slice time.Duration) *RR {
	if slice <= 0 {
		slice = DefaultRRSlice
	}
	return &RR{Slice: slice}
}

// Name implements cpusim.Scheduler.
func (r *RR) Name() string { return "RR" }

// Bind implements cpusim.Scheduler.
func (r *RR) Bind(api cpusim.API) { r.api = api }

// Enqueue implements cpusim.Scheduler.
func (r *RR) Enqueue(now simtime.Time, t *task.Task) { r.q.Push(t) }

// PickNext implements cpusim.Scheduler.
func (r *RR) PickNext(now simtime.Time, core int) (*task.Task, time.Duration) {
	return r.q.Pop(), r.Slice
}

// Descheduled implements cpusim.Scheduler: a task whose quantum expired
// rotates to the tail.
func (r *RR) Descheduled(now simtime.Time, core int, t *task.Task, ran time.Duration, reason cpusim.DescheduleReason) {
	if reason == cpusim.ReasonPreempted {
		r.q.Push(t)
	}
}

// WantsPreempt implements cpusim.Scheduler.
func (r *RR) WantsPreempt(now simtime.Time, core int) bool { return false }
