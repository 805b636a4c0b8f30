package host

import (
	"fmt"
	"time"

	"github.com/serverless-sched/sfs/internal/simtime"
	"github.com/serverless-sched/sfs/internal/task"
)

// submission is one placed invocation traveling to its runtime: it was
// assigned by a dispatcher and will enter the runtime's engine at `at`
// during the group's next Advance window, runnable delay after that
// (see Runtime.Place).
type submission struct {
	t     *task.Task
	at    simtime.Time
	delay time.Duration
	idx   int32 // group-local runtime index
	// next links the runtime's next submission in the window Advance is
	// running (an index into Group.subs), or is -1 after its last.
	next int32
}

// Group drives a fleet of Runtimes: it is one shard of the cluster
// coordinator. Serial mode is one Group over every host, stepped one
// event at a time in global (time, index) order with immediate
// delivery (Min, Step, Deliver); sharded mode builds one Group per
// shard and advances whole windows of queued submissions (Enqueue,
// Advance). Inside a window no host can affect another — placement,
// central-queue claims, chain releases and completion observers all
// act at the coordinator between windows — so Advance runs each host
// with work in the window all the way to the window's end in one go,
// interleaving its own submissions with its own events in time order.
// A host's event sequence depends only on the submissions it receives,
// so replays are byte-identical at any partitioning and in any order
// the hosts of a window are visited.
//
// A group keys its runtimes by their next event that is not a held
// slice renewal (see cpusim.Renewer), so a host whose tasks only renew
// their slices is not stepped until real work is due: the next
// StepEvent or Place passes the renewals due before it. No driver
// needs to visit a renewal, because the sharded coordinator reads
// lifecycle state as of a window's start, an instant on its fixed grid,
// not as of the last window it visited.
type Group struct {
	rts  []*Runtime
	hh   *Heap
	subs []submission // time-ordered; coordinator appends, Advance consumes
	// Advance's scratch, kept across windows: each runtime's first
	// submission in the window (an index into subs, linked onward
	// through submission.next, or -1 when it has none), and the
	// runtimes that have one. Built on the first Advance, so serial
	// groups never allocate them.
	heads   []int32
	touched []int32
}

// NewGroup builds a group over rts. The runtimes must be fresh: their
// engines hold no work, so every heap key starts at Infinity.
func NewGroup(rts []*Runtime) *Group {
	return &Group{rts: rts, hh: NewHeap(len(rts))}
}

// Min returns the runtime with the earliest key (lowest index on ties)
// and that key; idle runtimes report simtime.Infinity.
func (g *Group) Min() (idx int, at simtime.Time) { return g.hh.Min() }

// Step fires runtime i's earliest pending event that is not a held
// renewal, re-keys it, and returns the number of tasks that completed.
// This is serial mode's event-granular advance.
func (g *Group) Step(i int) (completions int) {
	eng := g.rts[i].eng
	before := eng.Pending()
	eng.StepEvent()
	g.hh.Update(i, g.rts[i].NextEventTime())
	return before - eng.Pending()
}

// Deliver hands t to runtime i at instant `at` — through the runtime's
// full stage pipeline, runnable delay after `at` plus the stages' own
// delays (see Runtime.Place) — and re-keys it. This is serial mode's
// immediate delivery. It panics when `at` precedes the runtime's
// engine clock (see onTime).
func (g *Group) Deliver(i int, at simtime.Time, delay time.Duration, t *task.Task) {
	g.onTime(i, at)
	g.rts[i].Place(at, delay, t)
	g.hh.Update(i, g.rts[i].NextEventTime())
}

// Enqueue defers delivery of t to runtime i, with Deliver's delay,
// until Advance reaches instant `at`. Submissions must be enqueued in
// non-decreasing `at` order (the coordinator's dispatch order
// guarantees this); the runtime's Queued count reflects the assignment
// immediately so dispatchers see same-window placements.
func (g *Group) Enqueue(i int, at simtime.Time, delay time.Duration, t *task.Task) {
	g.subs = append(g.subs, submission{t: t, at: at, delay: delay, idx: int32(i)})
	g.rts[i].queued++
}

// NextSubmissionTime is the delivery instant of the earliest
// undelivered submission, or simtime.Infinity when none are queued.
func (g *Group) NextSubmissionTime() simtime.Time {
	if len(g.subs) > 0 {
		return g.subs[0].at
	}
	return simtime.Infinity
}

// Advance runs the group's runtimes up to (but excluding) bound and
// returns the number of tasks that completed. It first links each
// runtime's submissions before bound into a list, then runs every
// runtime that has such a submission or an earlier key to bound (see
// run), each once, and re-keys it. Submissions at or after bound stay
// queued. Between barriers a sharded window touches its group only
// through this method.
func (g *Group) Advance(bound simtime.Time) (completions int) {
	if g.heads == nil {
		g.heads = make([]int32, len(g.rts))
		for i := range g.heads {
			g.heads[i] = -1
		}
		g.touched = make([]int32, 0, len(g.rts))
	}
	n := 0
	for n < len(g.subs) && g.subs[n].at < bound {
		n++
	}
	// Linking back to front puts each list in time order.
	for k := n - 1; k >= 0; k-- {
		sub := &g.subs[k]
		if sub.next = g.heads[sub.idx]; sub.next < 0 {
			g.touched = append(g.touched, sub.idx)
		}
		g.heads[sub.idx] = int32(k)
	}
	for _, i := range g.touched {
		completions += g.run(int(i), bound)
	}
	g.touched = g.touched[:0]
	for {
		i, at := g.hh.Min()
		if at >= bound {
			break
		}
		completions += g.run(i, bound)
	}
	if n > 0 {
		g.subs = g.subs[:copy(g.subs, g.subs[n:])]
	}
	return completions
}

// onTime panics when the group is about to deliver to runtime i at an
// instant behind the runtime's engine clock. The engine would take the
// arrival at its clock instead (simtime.Queue.At clamps), silently
// changing the schedule, so a late delivery is a driver bug.
func (g *Group) onTime(i int, at simtime.Time) {
	if now := g.rts[i].eng.Now(); at < now {
		panic(fmt.Sprintf("host: runtime %d: delivery at %v is behind its engine clock at %v", i, at, now))
	}
}

// run advances runtime i to bound: it delivers the runtime's linked
// window submissions in time order, each after the engine events at or
// before its instant (engine events first on ties, as everywhere
// else), then fires the events left before bound. run re-keys the
// runtime once, at or after bound, and returns how many tasks
// completed.
func (g *Group) run(i int, bound simtime.Time) (completions int) {
	rt := g.rts[i]
	eng := rt.eng
	unfinished := eng.Pending() // plus each task delivered below
	for k := g.heads[i]; k >= 0; {
		sub := &g.subs[k]
		for rt.NextEventTime() <= sub.at {
			eng.StepEvent()
		}
		rt.queued--
		g.onTime(i, sub.at)
		rt.Place(sub.at, sub.delay, sub.t)
		unfinished++
		k = sub.next
	}
	g.heads[i] = -1
	for rt.NextEventTime() < bound {
		eng.StepEvent()
	}
	g.hh.Update(i, rt.NextEventTime())
	return unfinished - eng.Pending()
}
