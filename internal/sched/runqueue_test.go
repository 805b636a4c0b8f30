package sched

import (
	"fmt"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/rng"
)

// rqItem is one insertion into the order oracle: its keys plus a token
// unique to the insertion, so two entries with equal keys and equal
// IDs stay distinguishable.
type rqItem struct {
	key time.Duration
	id  int
	tok int
}

// rqOracle drives the run-queue heap and, side by side, a linear-scan
// model: a slice in insertion order whose pop takes the first entry of
// least (key, ID). The model pops equal (key, ID) entries in insertion
// order; the heap must too.
type rqOracle struct {
	q     runQueue[int]
	model []rqItem
	next  int
}

func (o *rqOracle) insert(key time.Duration, id int) {
	o.q.Insert(key, id, o.next)
	o.model = append(o.model, rqItem{key: key, id: id, tok: o.next})
	o.next++
}

// least is the index of the model's first entry of least (key, ID), or
// -1 when the model is empty.
func (o *rqOracle) least() int {
	best := -1
	for i, it := range o.model {
		if best < 0 || it.key < o.model[best].key || it.key == o.model[best].key && it.id < o.model[best].id {
			best = i
		}
	}
	return best
}

// pop pops the heap and the model and reports any difference in what
// came out.
func (o *rqOracle) pop() error {
	got, ok := o.q.PopMin()
	i := o.least()
	if i < 0 {
		if ok {
			return fmt.Errorf("heap popped token %d, model is empty", got)
		}
		return nil
	}
	want := o.model[i]
	o.model = append(o.model[:i], o.model[i+1:]...)
	if !ok || got != want.tok {
		return fmt.Errorf("heap popped token %d (ok %v), model pops token %d (key %v, id %d)",
			got, ok, want.tok, want.key, want.id)
	}
	return nil
}

// check compares the heap's and the model's sizes and minimum entries.
func (o *rqOracle) check() error {
	if o.q.Len() != len(o.model) {
		return fmt.Errorf("heap holds %d entries, model %d", o.q.Len(), len(o.model))
	}
	key, tok, ok := o.q.Min()
	i := o.least()
	if ok != (i >= 0) {
		return fmt.Errorf("heap Min ok %v, model holds %d entries", ok, len(o.model))
	}
	if i >= 0 && (key != o.model[i].key || tok != o.model[i].tok) {
		return fmt.Errorf("heap Min is token %d at key %v, model Min is token %d at key %v",
			tok, key, o.model[i].tok, o.model[i].key)
	}
	return nil
}

// run applies one op byte: the low two bits pick the op (0, 1: insert;
// 2: pop; 3: Min only), bits 2-4 the key and bits 5-6 the ID, so equal
// keys and equal (key, ID) pairs are common. Every op ends with check.
func (o *rqOracle) run(op byte) error {
	switch op & 3 {
	case 0, 1:
		o.insert(time.Duration(op>>2&7), int(op>>5&3))
	case 2:
		if err := o.pop(); err != nil {
			return err
		}
	}
	return o.check()
}

// drain pops the heap and the model to empty.
func (o *rqOracle) drain() error {
	for len(o.model) > 0 || o.q.Len() > 0 {
		if err := o.pop(); err != nil {
			return err
		}
		if err := o.check(); err != nil {
			return err
		}
	}
	return nil
}

// TestRunQueueMatchesModel: over a long random op script the run-queue
// heap pops exactly the entries, in exactly the order, of the
// linear-scan model, and reports the same Min after every op. Phases
// alternate between growing and draining the queue.
func TestRunQueueMatchesModel(t *testing.T) {
	o := &rqOracle{}
	r := rng.New(11)
	const ops = 20000
	for i := 0; i < ops; i++ {
		op := byte(r.Intn(256))
		if i/1000%2 == 1 && op&3 < 2 && r.Intn(2) == 0 {
			op = op&^3 | 2 // draining phase: turn half the inserts into pops
		}
		if err := o.run(op); err != nil {
			t.Fatalf("op %d (%#02x): %v", i, op, err)
		}
	}
	if err := o.drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if o.next < ops/3 {
		t.Fatalf("only %d inserts in %d ops", o.next, ops)
	}
}

// FuzzRunQueueOrder runs arbitrary op scripts (see rqOracle.run)
// through the run-queue heap and the linear-scan model, then drains
// both.
func FuzzRunQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 2, 2})                   // three equal (key, ID) entries
	f.Add([]byte{0x1c, 0x60, 0x00, 0x20, 3, 2, 2, 2}) // equal keys, distinct IDs
	r := rng.New(5)
	script := make([]byte, 512)
	for i := range script {
		script[i] = byte(r.Intn(256))
	}
	f.Add(script)
	f.Fuzz(func(t *testing.T, script []byte) {
		o := &rqOracle{}
		for i, op := range script {
			if err := o.run(op); err != nil {
				t.Fatalf("op %d (%#02x): %v", i, op, err)
			}
		}
		if err := o.drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	})
}
