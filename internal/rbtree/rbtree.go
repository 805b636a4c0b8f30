// Package rbtree implements a left-leaning-free, classic red-black tree
// with an ordering function supplied at construction time.
//
// It is the substrate for the CFS runqueue model: Linux CFS keeps runnable
// tasks in a red-black tree ordered by vruntime and caches the leftmost
// node for O(1) pick-next. This implementation mirrors that shape: Min is
// O(1) via a cached leftmost pointer, Insert/Delete are O(log n).
//
// Duplicate keys are allowed (two tasks can share a vruntime); callers
// that need total order must break ties in the less function, exactly
// as internal/sched's CFS does with task IDs — a deterministic
// tie-break is part of the repository's reproducibility contract.
// Delete takes the *Node returned by Insert, not a key, so removing one
// of several equal-key entries is exact. The tree is not safe for
// concurrent use; schedulers are single-threaded inside the simulator's
// event loop by design.
//
// Deleted nodes are reused: each tree keeps a free list of the nodes it
// has deleted, and Insert takes from it before allocating, so a tree
// never owns more nodes than its peak size and steady-state
// re-queueing (a preempted task going back on its runqueue) allocates
// nothing. A node handle is therefore dead once Delete or PopMin has
// removed it; callers that keep handles must drop them at that point.
// Reuse is per tree, not a global pool, so which node an Insert returns
// is a deterministic function of the tree's operation history.
package rbtree

type color bool

const (
	red   color = false
	black color = true
)

// Node is a tree node holding a value of type V.
type Node[V any] struct {
	Value               V
	parent, left, right *Node[V]
	color               color
}

// Tree is a red-black tree. Construct with New.
type Tree[V any] struct {
	root *Node[V]
	min  *Node[V] // cached leftmost node
	free *Node[V] // deleted nodes, linked through right, Value zeroed
	size int
	less func(a, b V) bool
}

// New returns an empty tree ordered by less. Values comparing equal under
// less are permitted; their relative order is insertion-dependent, so
// callers that need total determinism should break ties in less (the CFS
// model breaks vruntime ties by task ID).
func New[V any](less func(a, b V) bool) *Tree[V] {
	return &Tree[V]{less: less}
}

// Len returns the number of nodes in the tree.
func (t *Tree[V]) Len() int { return t.size }

// Min returns the leftmost (smallest) node, or nil if the tree is empty.
// It is O(1).
func (t *Tree[V]) Min() *Node[V] { return t.min }

// Insert adds v and returns its node handle, which remains valid until the
// node is deleted. The node is a previously deleted one when the tree
// has any, so Insert allocates only while the tree grows past its
// previous peak size.
func (t *Tree[V]) Insert(v V) *Node[V] {
	n := t.free
	if n == nil {
		n = &Node[V]{}
	} else {
		t.free = n.right
		n.right = nil
	}
	n.Value, n.color = v, red
	if t.root == nil {
		n.color = black
		t.root = n
		t.min = n
		t.size = 1
		return n
	}
	cur := t.root
	var parent *Node[V]
	wentLeftAlways := true
	for cur != nil {
		parent = cur
		if t.less(v, cur.Value) {
			cur = cur.left
		} else {
			cur = cur.right
			wentLeftAlways = false
		}
	}
	n.parent = parent
	if t.less(v, parent.Value) {
		parent.left = n
	} else {
		parent.right = n
		wentLeftAlways = false
	}
	if wentLeftAlways {
		t.min = n
	}
	t.size++
	t.insertFixup(n)
	return n
}

// Delete removes node n from the tree and keeps it for reuse by a later
// Insert, so n must not be used afterwards. Passing a node that is not
// in the tree results in undefined behaviour; callers track membership.
func (t *Tree[V]) Delete(n *Node[V]) {
	if n == nil {
		return
	}
	if t.min == n {
		t.min = t.successor(n)
	}
	t.size--

	y := n
	yOriginalColor := y.color
	var x *Node[V]
	var xParent *Node[V]

	switch {
	case n.left == nil:
		x = n.right
		xParent = n.parent
		t.transplant(n, n.right)
	case n.right == nil:
		x = n.left
		xParent = n.parent
		t.transplant(n, n.left)
	default:
		y = t.minimum(n.right)
		yOriginalColor = y.color
		x = y.right
		if y.parent == n {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = n.right
			y.right.parent = y
		}
		t.transplant(n, y)
		y.left = n.left
		y.left.parent = y
		y.color = n.color
	}
	if yOriginalColor == black {
		t.deleteFixup(x, xParent)
	}
	var zero V
	n.Value, n.parent, n.left = zero, nil, nil
	n.right, t.free = t.free, n
}

// PopMin removes and returns the smallest node's value, recycling its
// node like Delete. The second result is false if the tree is empty.
func (t *Tree[V]) PopMin() (V, bool) {
	var zero V
	if t.min == nil {
		return zero, false
	}
	n := t.min
	v := n.Value
	t.Delete(n)
	return v, true
}

// Ascend visits values in ascending order until fn returns false.
func (t *Tree[V]) Ascend(fn func(v V) bool) {
	for n := t.min; n != nil; n = t.successor(n) {
		if !fn(n.Value) {
			return
		}
	}
}

// Values returns all values in ascending order. Intended for tests and
// diagnostics.
func (t *Tree[V]) Values() []V {
	out := make([]V, 0, t.size)
	t.Ascend(func(v V) bool { out = append(out, v); return true })
	return out
}

func (t *Tree[V]) minimum(n *Node[V]) *Node[V] {
	for n.left != nil {
		n = n.left
	}
	return n
}

func (t *Tree[V]) successor(n *Node[V]) *Node[V] {
	if n.right != nil {
		return t.minimum(n.right)
	}
	p := n.parent
	for p != nil && n == p.right {
		n = p
		p = p.parent
	}
	return p
}

func (t *Tree[V]) transplant(u, v *Node[V]) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *Tree[V]) rotateLeft(x *Node[V]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree[V]) rotateRight(x *Node[V]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *Tree[V]) insertFixup(z *Node[V]) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			uncle := gp.right
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				z = gp
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.color = black
				gp.color = red
				t.rotateRight(gp)
			}
		} else {
			uncle := gp.left
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				z = gp
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.color = black
				gp.color = red
				t.rotateLeft(gp)
			}
		}
	}
	t.root.color = black
}

func isBlack[V any](n *Node[V]) bool { return n == nil || n.color == black }

func (t *Tree[V]) deleteFixup(x *Node[V], parent *Node[V]) {
	for x != t.root && isBlack(x) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if w != nil && w.color == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.left) && isBlack(w.right) {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if isBlack(w.right) {
					if w.left != nil {
						w.left.color = black
					}
					w.color = red
					t.rotateRight(w)
					w = parent.right
				}
				w.color = parent.color
				parent.color = black
				if w.right != nil {
					w.right.color = black
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if w != nil && w.color == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.right) && isBlack(w.left) {
				w.color = red
				x = parent
				parent = x.parent
			} else {
				if isBlack(w.left) {
					if w.right != nil {
						w.right.color = black
					}
					w.color = red
					t.rotateLeft(w)
					w = parent.left
				}
				w.color = parent.color
				parent.color = black
				if w.left != nil {
					w.left.color = black
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.color = black
	}
}

// CheckInvariants verifies red-black tree invariants, returning false with
// a description on violation. Used by tests (including property-based
// tests); O(n).
func (t *Tree[V]) CheckInvariants() (bool, string) {
	if t.root == nil {
		if t.size != 0 {
			return false, "empty root but nonzero size"
		}
		if t.min != nil {
			return false, "empty root but non-nil min"
		}
		return true, ""
	}
	if t.root.color != black {
		return false, "root is not black"
	}
	count := 0
	ok, msg, _ := t.check(t.root, &count)
	if !ok {
		return false, msg
	}
	if count != t.size {
		return false, "size mismatch"
	}
	if t.min != t.minimum(t.root) {
		return false, "cached min is stale"
	}
	// Ordering check.
	var prev *V
	bad := false
	t.Ascend(func(v V) bool {
		if prev != nil && t.less(v, *prev) {
			bad = true
			return false
		}
		vv := v
		prev = &vv
		return true
	})
	if bad {
		return false, "values out of order"
	}
	return true, ""
}

func (t *Tree[V]) check(n *Node[V], count *int) (bool, string, int) {
	if n == nil {
		return true, "", 1
	}
	*count++
	if n.color == red {
		if !isBlack(n.left) || !isBlack(n.right) {
			return false, "red node with red child", 0
		}
	}
	if n.left != nil && n.left.parent != n {
		return false, "broken parent link (left)", 0
	}
	if n.right != nil && n.right.parent != n {
		return false, "broken parent link (right)", 0
	}
	okL, msgL, hL := t.check(n.left, count)
	if !okL {
		return false, msgL, 0
	}
	okR, msgR, hR := t.check(n.right, count)
	if !okR {
		return false, msgR, 0
	}
	if hL != hR {
		return false, "black-height mismatch", 0
	}
	h := hL
	if n.color == black {
		h++
	}
	return true, "", h
}
