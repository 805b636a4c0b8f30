package rbtree

import (
	"sort"
	"testing"
	"testing/quick"

	"github.com/serverless-sched/sfs/internal/rng"
)

func intTree() *Tree[int] {
	return New(func(a, b int) bool { return a < b })
}

// popMin removes and returns the smallest value through Min and Delete,
// the way a caller drains a tree; ok is false when the tree is empty.
func popMin(tr *Tree[int]) (v int, ok bool) {
	n := tr.Min()
	if n == nil {
		return 0, false
	}
	v = n.Value
	tr.Delete(n)
	return v, true
}

func TestEmptyTree(t *testing.T) {
	tr := intTree()
	if tr.Len() != 0 {
		t.Fatalf("empty tree has len %d", tr.Len())
	}
	if tr.Min() != nil {
		t.Fatal("empty tree has a min")
	}
	if _, ok := popMin(tr); ok {
		t.Fatal("Min+Delete on empty tree succeeded")
	}
	if ok, msg := tr.CheckInvariants(); !ok {
		t.Fatalf("empty tree invariants: %s", msg)
	}
}

func TestInsertOrdering(t *testing.T) {
	tr := intTree()
	in := []int{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}
	for _, v := range in {
		tr.Insert(v)
	}
	got := tr.Values()
	want := append([]int(nil), in...)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestMinTracking(t *testing.T) {
	tr := intTree()
	tr.Insert(10)
	tr.Insert(5)
	if tr.Min().Value != 5 {
		t.Fatalf("min = %d, want 5", tr.Min().Value)
	}
	n := tr.Insert(1)
	if tr.Min().Value != 1 {
		t.Fatalf("min = %d, want 1", tr.Min().Value)
	}
	tr.Delete(n)
	if tr.Min().Value != 5 {
		t.Fatalf("after delete, min = %d, want 5", tr.Min().Value)
	}
}

func TestMinDeleteDrainsInOrder(t *testing.T) {
	tr := intTree()
	r := rng.New(1)
	var want []int
	for i := 0; i < 500; i++ {
		v := r.Intn(100) // duplicates expected
		tr.Insert(v)
		want = append(want, v)
	}
	sort.Ints(want)
	for i, w := range want {
		v, ok := popMin(tr)
		if !ok {
			t.Fatalf("tree drained early at %d", i)
		}
		if v != w {
			t.Fatalf("pop %d: got %d want %d", i, v, w)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("tree not empty after drain: %d", tr.Len())
	}
}

func TestDeleteArbitraryNodes(t *testing.T) {
	tr := intTree()
	nodes := make([]*Node[int], 0, 100)
	for i := 0; i < 100; i++ {
		nodes = append(nodes, tr.Insert(i))
	}
	// Delete evens in a scrambled order.
	order := perm(rng.New(2), 50)
	for _, k := range order {
		tr.Delete(nodes[2*k])
		if ok, msg := tr.CheckInvariants(); !ok {
			t.Fatalf("invariants after deleting %d: %s", 2*k, msg)
		}
	}
	vals := tr.Values()
	if len(vals) != 50 {
		t.Fatalf("len = %d, want 50", len(vals))
	}
	for i, v := range vals {
		if v != 2*i+1 {
			t.Fatalf("value %d: got %d want %d", i, v, 2*i+1)
		}
	}
}

// perm returns a random permutation of [0, n) drawn from r.
func perm(r *rng.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

func TestDeleteNilIsNoop(t *testing.T) {
	tr := intTree()
	tr.Insert(1)
	tr.Delete(nil)
	if tr.Len() != 1 {
		t.Fatal("Delete(nil) changed the tree")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := intTree()
	for i := 0; i < 10; i++ {
		tr.Insert(i)
	}
	var seen []int
	tr.Ascend(func(v int) bool {
		seen = append(seen, v)
		return v < 4
	})
	if len(seen) != 5 {
		t.Fatalf("visited %d values, want 5 (0..4, stopping at 4)", len(seen))
	}
}

// TestRandomOpsInvariants is a property test: a random interleaving of
// inserts and deletes must preserve red-black invariants, ordering, size,
// and min tracking at every step. The insert probability swings between
// growing and draining phases, so most inserts land on recycled nodes and
// the invariant checks cover them; the tree must own exactly as many
// distinct nodes as its peak size, with every spare one on the free list.
func TestRandomOpsInvariants(t *testing.T) {
	r := rng.New(42)
	tr := intTree()
	var live []*Node[int]
	counts := map[int]int{}
	seen := map[*Node[int]]bool{}
	peak, reused := 0, 0
	for step := 0; step < 6000; step++ {
		pInsert := 0.7
		if step/500%2 == 1 {
			pInsert = 0.3
		}
		if len(live) == 0 || r.Float64() < pInsert {
			v := r.Intn(64)
			n := tr.Insert(v)
			if seen[n] {
				reused++
			}
			seen[n] = true
			live = append(live, n)
			counts[v]++
			peak = max(peak, len(live))
		} else {
			i := r.Intn(len(live))
			n := live[i]
			counts[n.Value]--
			tr.Delete(n)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%97 == 0 {
			if ok, msg := tr.CheckInvariants(); !ok {
				t.Fatalf("step %d: %s", step, msg)
			}
			if tr.Len() != len(live) {
				t.Fatalf("step %d: len %d want %d", step, tr.Len(), len(live))
			}
		}
	}
	if ok, msg := tr.CheckInvariants(); !ok {
		t.Fatalf("final: %s", msg)
	}
	if reused < 1000 {
		t.Fatalf("only %d inserts reused a node", reused)
	}
	if len(seen) != peak {
		t.Fatalf("tree allocated %d nodes for a peak size of %d", len(seen), peak)
	}
	spare := 0
	for n := tr.free; n != nil; n = n.right {
		if n.Value != 0 || n.parent != nil || n.left != nil {
			t.Fatal("free-list node not cleared")
		}
		spare++
	}
	if tr.Len()+spare != peak {
		t.Fatalf("len %d + free %d != peak %d", tr.Len(), spare, peak)
	}
	// Final multiset check.
	got := map[int]int{}
	for _, v := range tr.Values() {
		got[v]++
	}
	for v, c := range counts {
		if c != 0 && got[v] != c {
			t.Fatalf("value %d: count %d want %d", v, got[v], c)
		}
	}
}

// TestSteadyStateAllocFree: once a tree has reached its working size,
// re-queueing through either removal path allocates nothing, and a
// deleted value is not retained by the node kept for reuse.
func TestSteadyStateAllocFree(t *testing.T) {
	popped := intTree()
	for i := 0; i < 64; i++ {
		popped.Insert(i)
	}
	if a := testing.AllocsPerRun(1000, func() {
		v, _ := popMin(popped)
		popped.Insert(v + 64)
	}); a != 0 {
		t.Fatalf("Insert+Min+Delete: %v allocs per cycle, want 0", a)
	}

	deleted := intTree()
	nodes := make([]*Node[int], 64)
	for i := range nodes {
		nodes[i] = deleted.Insert(i)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		k := i % len(nodes)
		deleted.Delete(nodes[k])
		nodes[k] = deleted.Insert(i)
		i++
	}); a != 0 {
		t.Fatalf("Insert+Delete: %v allocs per cycle, want 0", a)
	}
	for _, tr := range []*Tree[int]{popped, deleted} {
		if ok, msg := tr.CheckInvariants(); !ok || tr.Len() != 64 {
			t.Fatalf("len %d: %s", tr.Len(), msg)
		}
	}

	ptrs := New(func(a, b *int) bool { return *a < *b })
	n := ptrs.Insert(new(int))
	ptrs.Delete(n)
	if n.Value != nil || ptrs.free != n {
		t.Fatal("a deleted node must be cleared and kept for reuse")
	}
	if ptrs.Insert(new(int)) != n {
		t.Fatal("Insert did not reuse the deleted node")
	}
}

// TestQuickSortedDrain uses testing/quick: inserting any []uint8 and
// draining via Min and Delete yields the sorted input.
func TestQuickSortedDrain(t *testing.T) {
	f := func(xs []uint8) bool {
		tr := intTree()
		for _, x := range xs {
			tr.Insert(int(x))
		}
		if ok, _ := tr.CheckInvariants(); !ok {
			return false
		}
		want := make([]int, len(xs))
		for i, x := range xs {
			want[i] = int(x)
		}
		sort.Ints(want)
		for _, w := range want {
			v, ok := popMin(tr)
			if !ok || v != w {
				return false
			}
		}
		_, ok := popMin(tr)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	tr := intTree()
	r := rng.New(3)
	var nodes []*Node[int]
	for i := 0; i < 1024; i++ {
		nodes = append(nodes, tr.Insert(r.Intn(1<<20)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % len(nodes)
		tr.Delete(nodes[idx])
		nodes[idx] = tr.Insert(i & (1<<20 - 1))
	}
}

func BenchmarkMinDeleteInsert(b *testing.B) {
	tr := intTree()
	r := rng.New(4)
	for i := 0; i < 4096; i++ {
		tr.Insert(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := popMin(tr)
		tr.Insert(v + 1)
	}
}
