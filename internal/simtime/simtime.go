// Package simtime provides the virtual clock and event queue that drive the
// discrete-event simulations in this repository.
//
// Virtual time is represented as time.Duration since simulation start,
// giving nanosecond resolution and readable formatting for free. The event
// queue is an indexed binary min-heap keyed by (time, sequence) so that
// events scheduled for the same instant fire in FIFO order, which keeps
// simulations deterministic. Heap entries carry both keys inline next to
// the event pointer, so sifting compares entries without dereferencing
// events.
//
// Every event has one shape: a Handler and a payload. An owner builds
// each of its handlers once — the engine one for arrivals, one for I/O
// wakes and one for stint ends; SFS one per timer kind; a lifecycle
// manager one for expiries and one for pre-warms — and passes what
// differs per event as the payload: the task, core, worker, container
// or pre-warm record it concerns. A pointer payload boxes into an any
// without allocating, so scheduling an event builds no closure.
//
// A Queue never advances on its own: Step (or Run) pops the
// earliest event and moves Now to its time, so whoever calls Step owns
// the pace of time. cpusim.Engine.Run steps one queue to completion;
// the cluster layer's serial mode instead interleaves many queues by
// always stepping the engine whose next event is globally earliest,
// and a sharded window steps each engine to the window's end in turn.
// Scheduling At a
// time already in the past is clamped to Now and fires on the next
// Step — the idiom for "immediate" follow-up work. Cancel is O(log n)
// and safe on already-fired events, which is what lets schedulers
// re-arm timers without bookkeeping.
//
// An owner may keep an event outside the queue and still fire it in its
// turn: Reserve takes the sequence number At would have used, Precedes
// compares the held (time, sequence) with the queue's head, and Pass
// moves the clock when the owner handles it (AtSeq queues it after all).
// cpusim holds slice renewals this way.
//
// Event structs come from blocks that start at 16 structs and double up
// to 4,096, and once an event fires or is cancelled its struct drops its
// handler and payload and is recycled for a later At/After call, so a
// queue allocates a few blocks for its high-water mark of pending events
// and nothing in steady state. Handles are therefore
// value-type EventRefs carrying a generation counter — a ref to a
// recycled event simply stops matching, which keeps Cancel on stale
// handles a safe no-op instead of a use-after-free on someone else's
// timer.
package simtime

import "time"

// Time is virtual time since simulation start.
type Time = time.Duration

// Infinity is a sentinel virtual time later than any event a simulation
// will schedule.
const Infinity Time = 1<<63 - 1

// Handler is an event's callback. It receives the instant the event fires
// and the payload the event was scheduled with.
type Handler func(now Time, arg any)

// Event is a handler and its payload scheduled to fire at a virtual
// time. Event structs are owned and recycled by the Queue; callers hold
// EventRef handles.
type Event struct {
	h   Handler
	arg any
	idx int32 // heap index while queued
	gen uint32
}

// Event blocks start at firstBlock structs and double up to maxBlock.
const (
	firstBlock = 16
	maxBlock   = 4096
)

// EventRef is a value handle to a scheduled event. The zero EventRef is
// valid and refers to no event. Because event structs are recycled, a
// ref is only live while its generation matches; Cancel and Cancelled
// on a stale ref (fired, cancelled, or recycled) are safe no-ops.
type EventRef struct {
	e   *Event
	gen uint32
}

// Cancelled reports whether the referenced event is no longer pending:
// it fired, was cancelled, or its struct was recycled for a newer event.
// Firing and cancelling both recycle the struct, bumping its
// generation, so the generation alone tells. The zero EventRef reports
// false.
func (r EventRef) Cancelled() bool {
	return r.e != nil && r.e.gen != r.gen
}

// entry is one heap slot: an event with its ordering keys stored inline.
type entry struct {
	at  Time
	seq uint64
	e   *Event
}

// before orders entries by time, breaking ties by scheduling sequence
// so same-instant events fire in FIFO order.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Queue is a deterministic discrete-event queue. The zero value is ready to
// use. Queue is not safe for concurrent use; simulations are single
// threaded by design.
type Queue struct {
	now   Time
	seq   uint64
	heap  []entry
	free  []*Event // recycled event structs
	block []Event  // the newest block's structs not yet handed out
	size  int      // the newest block's size
}

// Now returns the current virtual time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// alloc takes an event struct from the free list, or else from the
// newest block, starting a block twice the last one's size (at most
// maxBlock) when that is used up.
func (q *Queue) alloc() *Event {
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	if len(q.block) == 0 {
		q.size = min(max(2*q.size, firstBlock), maxBlock)
		q.block = make([]Event, q.size)
	}
	e := &q.block[0]
	q.block = q.block[1:]
	return e
}

// release returns a finished event struct to the free list, bumping its
// generation so outstanding refs to its previous life go stale, and
// drops its handler and payload so a recycled struct keeps nothing
// alive.
func (q *Queue) release(e *Event) {
	e.gen++
	e.h, e.arg = nil, nil
	q.free = append(q.free, e)
}

// At schedules h with payload arg at absolute virtual time at.
// Scheduling in the past (or at the current instant) fires the event at
// the current time on the next Step; this is valid and used for
// "immediate" follow-up work. The returned EventRef may be passed to
// Cancel.
func (q *Queue) At(at Time, h Handler, arg any) EventRef {
	return q.AtSeq(at, q.Reserve(), h, arg)
}

// Reserve takes the sequence number the next At would use. An owner
// that keeps an event outside the queue reserves its number where it
// would have scheduled it, so the event keeps its place in the (time,
// sequence) order: it later either schedules it with AtSeq or handles
// it itself at its turn (see Precedes and Pass).
func (q *Queue) Reserve() uint64 {
	seq := q.seq
	q.seq++
	return seq
}

// AtSeq is At under a sequence number taken earlier with Reserve.
func (q *Queue) AtSeq(at Time, seq uint64, h Handler, arg any) EventRef {
	if at < q.now {
		at = q.now
	}
	e := q.alloc()
	e.h, e.arg = h, arg
	q.push(entry{at: at, seq: seq, e: e})
	return EventRef{e: e, gen: e.gen}
}

// Precedes reports whether an event at (at, seq) comes before every
// pending event, so an owner holding it outside the queue must handle
// it before the next Step. It is true when the queue is empty.
func (q *Queue) Precedes(at Time, seq uint64) bool {
	if len(q.heap) == 0 {
		return true
	}
	x := entry{at: at, seq: seq}
	return x.before(&q.heap[0])
}

// Pass moves Now to at, the instant of an event its owner held outside
// the queue and handles in its turn. Time never moves backwards: an
// earlier at leaves Now as it is.
func (q *Queue) Pass(at Time) {
	if at > q.now {
		q.now = at
	}
}

// After schedules h with payload arg after delay d from the current
// virtual time.
func (q *Queue) After(d Time, h Handler, arg any) EventRef {
	if d < 0 {
		d = 0
	}
	return q.At(q.now+d, h, arg)
}

// Cancel removes a pending event. Cancelling a zero, already-fired,
// already-cancelled, or recycled ref is a no-op.
func (q *Queue) Cancel(r EventRef) {
	e := r.e
	if e == nil || e.gen != r.gen {
		return
	}
	q.remove(int(e.idx))
	q.release(e)
}

// PeekTime returns the time of the next pending event, or Infinity if none.
func (q *Queue) PeekTime() Time {
	if len(q.heap) == 0 {
		return Infinity
	}
	return q.heap[0].at
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false if the queue is empty.
func (q *Queue) Step() bool {
	if len(q.heap) == 0 {
		return false
	}
	at, e := q.heap[0].at, q.heap[0].e
	q.remove(0)
	q.now = at
	h, arg := e.h, e.arg
	q.release(e)
	h(q.now, arg)
	return true
}

// Run fires events until the queue drains or until the next event would be
// after deadline. It returns the number of events fired.
func (q *Queue) Run(deadline Time) int {
	n := 0
	for len(q.heap) > 0 && q.heap[0].at <= deadline {
		q.Step()
		n++
	}
	if q.now < deadline && deadline < Infinity {
		q.now = deadline
	}
	return n
}

// push adds x to the heap.
func (q *Queue) push(x entry) {
	q.heap = append(q.heap, entry{})
	q.up(len(q.heap)-1, x)
}

// remove takes the entry at heap index i out of the heap.
func (q *Queue) remove(i int) {
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap[n] = entry{}
	q.heap = q.heap[:n]
	if i < n {
		q.down(i, last)
		if int(last.e.idx) == i {
			q.up(i, last)
		}
	}
}

// up places x at heap index i, the slot it sifts up from, moving
// larger ancestors down into the hole instead of swapping.
func (q *Queue) up(i int, x entry) {
	h := q.heap
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].e.idx = int32(i)
		i = p
	}
	h[i] = x
	x.e.idx = int32(i)
}

// down places x at heap index i, the slot it sifts down from, moving
// smaller children up into the hole instead of swapping.
func (q *Queue) down(i int, x entry) {
	h := q.heap
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&x) {
			break
		}
		h[i] = h[c]
		h[i].e.idx = int32(i)
		i = c
	}
	h[i] = x
	x.e.idx = int32(i)
}
