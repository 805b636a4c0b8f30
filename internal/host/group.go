package host

import (
	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// submission is one placed invocation traveling to its runtime: it was
// assigned by a dispatcher and will enter the runtime's engine at `at`
// during the group's next Advance window.
type submission struct {
	t   *task.Task
	at  simtime.Time
	idx int // group-local runtime index
}

// Group drives a fleet of Runtimes in global next-event order: it is
// one shard of the cluster coordinator. Serial mode is one Group over
// every host, stepped one event at a time with immediate delivery
// (Min, Step, Deliver); sharded mode builds one Group per shard and
// advances whole windows of queued submissions (Enqueue, Advance).
// Either way every event and delivery flows through the same
// primitives, so replays are byte-identical at any partitioning.
type Group struct {
	rts     []*Runtime
	hh      *Heap
	subs    []submission // time-ordered; coordinator appends, Advance consumes
	subHead int
}

// NewGroup builds a group over rts. The runtimes must be fresh: their
// engines hold no work, so every heap key starts at Infinity.
func NewGroup(rts []*Runtime) *Group {
	return &Group{rts: rts, hh: NewHeap(len(rts))}
}

// Min returns the runtime with the earliest pending engine event
// (lowest index on ties) and that event's time; idle runtimes report
// simtime.Infinity.
func (g *Group) Min() (idx int, at simtime.Time) { return g.hh.Min() }

// Step fires runtime i's earliest pending event, re-keys it, and
// returns the number of tasks that completed.
func (g *Group) Step(i int) (completions int) {
	rt := g.rts[i]
	before := rt.eng.Pending()
	rt.StepEvent()
	g.hh.Update(i, rt.NextEventTime())
	return before - rt.eng.Pending()
}

// Deliver hands t to runtime i at instant `at` — through the runtime's
// full stage pipeline — and re-keys it. This is serial mode's
// immediate delivery; Advance uses it for queued submissions.
func (g *Group) Deliver(i int, at simtime.Time, t *task.Task) {
	g.rts[i].Place(at, t)
	g.hh.Update(i, g.rts[i].NextEventTime())
}

// Enqueue defers delivery of t to runtime i until Advance reaches
// instant `at`. Submissions must be enqueued in non-decreasing `at`
// order (the coordinator's dispatch order guarantees this);
// the runtime's Queued count reflects the assignment immediately so
// dispatchers see same-window placements.
func (g *Group) Enqueue(i int, at simtime.Time, t *task.Task) {
	g.subs = append(g.subs, submission{t: t, at: at, idx: i})
	g.rts[i].queued++
}

// NextSubmissionTime is the delivery instant of the earliest
// undelivered submission, or simtime.Infinity when none are queued.
func (g *Group) NextSubmissionTime() simtime.Time {
	if g.subHead < len(g.subs) {
		return g.subs[g.subHead].at
	}
	return simtime.Infinity
}

// Advance runs the group's runtimes up to (but excluding) bound,
// interleaving queued submissions with engine events in exact time
// order — engine events first on ties, as everywhere else — and
// returns the number of tasks that completed. Between barriers a
// sharded window touches its group only through this method.
func (g *Group) Advance(bound simtime.Time) (completions int) {
	for {
		hi, ht := g.hh.Min()
		st := g.NextSubmissionTime()
		if ht >= bound && st >= bound {
			break
		}
		if ht <= st {
			// Engine events fire before same-instant submissions, exactly
			// as serial mode fires host events before same-instant
			// arrivals.
			completions += g.Step(hi)
			continue
		}
		sub := g.subs[g.subHead]
		g.subHead++
		g.rts[sub.idx].queued--
		g.Deliver(sub.idx, sub.at, sub.t)
	}
	if g.subHead == len(g.subs) {
		g.subs = g.subs[:0]
		g.subHead = 0
	}
	return completions
}
