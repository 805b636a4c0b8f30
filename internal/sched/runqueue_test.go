package sched

import (
	"fmt"
	"testing"
	"time"

	"github.com/serverless-sched/sfs/internal/rbtree"
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

// rqOracle drives the run-queue heap and, side by side, an rbtree.Tree
// ordered by the (key, ID) less the schedulers used before the heap.
// The tree places an entry after every equal one already queued, so it
// pops equal (key, ID) entries in insertion order; the heap must too.
type rqOracle struct {
	q    runQueue[int]
	tree *rbtree.Tree[rqItem]
	next int
}

func newRQOracle() *rqOracle {
	return &rqOracle{tree: rbtree.New(func(a, b rqItem) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.id < b.id
	})}
}

func (o *rqOracle) insert(key time.Duration, id int) {
	o.q.Insert(key, id, o.next)
	o.tree.Insert(rqItem{key: key, id: id, tok: o.next})
	o.next++
}

// pop pops both queues and reports any difference in what came out.
func (o *rqOracle) pop() error {
	got, ok := o.q.PopMin()
	n := o.tree.Min()
	if n == nil {
		if ok {
			return fmt.Errorf("heap popped token %d, tree is empty", got)
		}
		return nil
	}
	want := n.Value
	o.tree.Delete(n)
	if !ok || got != want.tok {
		return fmt.Errorf("heap popped token %d (ok %v), tree pops token %d (key %v, id %d)",
			got, ok, want.tok, want.key, want.id)
	}
	return nil
}

// check compares the two queues' sizes and minimum entries.
func (o *rqOracle) check() error {
	if o.q.Len() != o.tree.Len() {
		return fmt.Errorf("heap holds %d entries, tree %d", o.q.Len(), o.tree.Len())
	}
	key, tok, ok := o.q.Min()
	n := o.tree.Min()
	if ok != (n != nil) {
		return fmt.Errorf("heap Min ok %v, tree Min %v", ok, n != nil)
	}
	if n != nil && (key != n.Value.key || tok != n.Value.tok) {
		return fmt.Errorf("heap Min is token %d at key %v, tree Min is token %d at key %v",
			tok, key, n.Value.tok, n.Value.key)
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

// drain pops both queues to empty.
func (o *rqOracle) drain() error {
	for o.tree.Len() > 0 || o.q.Len() > 0 {
		if err := o.pop(); err != nil {
			return err
		}
		if err := o.check(); err != nil {
			return err
		}
	}
	return nil
}

// TestRunQueueMatchesTree: over a long random op script the run-queue
// heap pops exactly the entries, in exactly the order, of the
// red-black tree it replaced, and reports the same Min after every op.
// Phases alternate between growing and draining the queue.
func TestRunQueueMatchesTree(t *testing.T) {
	o := newRQOracle()
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
// through the run-queue heap and the red-black tree, then drains both.
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
		o := newRQOracle()
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
