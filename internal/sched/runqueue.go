package sched

import "time"

// rqEntry is one queued value with its ordering keys stored inline, so
// a heap comparison reads the entry itself instead of chasing a
// pointer to the value.
type rqEntry[V any] struct {
	key time.Duration
	id  int    // task ID: the deterministic tie-break among equal keys
	seq uint64 // insertion order among equal (key, id)
	v   V
}

func (a *rqEntry[V]) before(b *rqEntry[V]) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.seq < b.seq
}

// runQueue is the pop-min run queue of the schedulers that only ever
// take their smallest entry (CFS by vruntime, SRTF and PSRTF by
// remaining demand): a flat binary min-heap of value entries ordered
// by (key, task ID, insertion sequence). The sequence gives first-in,
// first-out order among entries with equal (key, ID), so the pop order
// is total and replays are deterministic.
// The key is fixed at Insert; a caller whose key changes re-inserts.
// The zero value is an empty queue. Popped slots are zeroed and the
// slice keeps its capacity, so steady-state re-queueing allocates
// nothing.
type runQueue[V any] struct {
	h   []rqEntry[V]
	seq uint64
}

// Len returns the number of queued entries.
func (q *runQueue[V]) Len() int { return len(q.h) }

// Min returns the smallest entry's key and value without removing it;
// ok is false when the queue is empty.
func (q *runQueue[V]) Min() (key time.Duration, v V, ok bool) {
	if len(q.h) == 0 {
		return 0, v, false
	}
	return q.h[0].key, q.h[0].v, true
}

// Insert queues v under key, breaking key ties by id and then by
// insertion order.
func (q *runQueue[V]) Insert(key time.Duration, id int, v V) {
	x := rqEntry[V]{key: key, id: id, seq: q.seq, v: v}
	q.seq++
	q.h = append(q.h, x)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// PopMin removes and returns the smallest entry's value; ok is false
// when the queue is empty.
func (q *runQueue[V]) PopMin() (v V, ok bool) {
	n := len(q.h) - 1
	if n < 0 {
		return v, false
	}
	h := q.h
	v = h[0].v
	x := h[n]
	h[n] = rqEntry[V]{}
	h = h[:n]
	q.h = h
	if n == 0 {
		return v, true
	}
	i := 0
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
		i = c
	}
	h[i] = x
	return v, true
}
