package host

import (
	"fmt"

	"github.com/serverless-sched/sfs/internal/task"
)

// hookQueue is the first-in, first-out queue of released arrivals
// shared by every drive loop. A stage releases a task at its upstream
// completion instant, and the engine finishes tasks in time order, so
// releases arrive in (arrival time, release) order and the queue stays
// sorted without a heap: same-instant releases are submitted in the
// order their upstream completions produced them — the tie-break that
// keeps replays byte-identical.
type hookQueue struct {
	q    []*task.Task
	next int // index of the head in q
}

// push queues t behind every pending release. A release arriving
// before the queued tail would break the order, so it panics.
func (q *hookQueue) push(t *task.Task) {
	if n := len(q.q); n > q.next && t.Arrival < q.q[n-1].Arrival {
		panic(fmt.Sprintf("host: release arriving at %v before the queued tail at %v", t.Arrival, q.q[n-1].Arrival))
	}
	q.q = append(q.q, t)
}

// head returns the earliest pending release without removing it, or
// nil when the queue is empty.
func (q *hookQueue) head() *task.Task {
	if q.next == len(q.q) {
		return nil
	}
	return q.q[q.next]
}

// pop removes and returns the earliest pending release. An emptied
// queue starts over at the front of its array.
func (q *hookQueue) pop() *task.Task {
	t := q.q[q.next]
	q.q[q.next] = nil
	if q.next++; q.next == len(q.q) {
		q.q, q.next = q.q[:0], 0
	}
	return t
}
