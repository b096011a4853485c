// Package btree implements an in-memory B-Tree with copy-on-write clones.
//
// Meta partitions (Section 2.1.1 of the CFS paper) keep two of these per
// partition: an inodeTree indexed by inode id and a dentryTree indexed by
// (parent inode id, name). Clone() produces an O(1) snapshot that shares
// nodes with the original; subsequent writes on either tree copy shared
// nodes lazily, which is what lets Raft snapshots serialize a consistent
// view of a partition while it keeps serving writes.
//
// The tree is not safe for concurrent mutation; callers wrap it in a lock
// (meta partitions serialize writes through Raft anyway).
package btree

import "sort"

// Item is a single element in the tree. Items are ordered by Less; two
// items a, b are considered equal when !a.Less(b) && !b.Less(a).
type Item interface {
	Less(than Item) bool
}

// DefaultDegree is the branching factor used by New. Each node holds
// between degree-1 and 2*degree-1 items (except the root).
const DefaultDegree = 32

type items []Item

// insertAt inserts v at index i, shifting the tail right.
func (s *items) insertAt(i int, v Item) {
	*s = append(*s, nil)
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = v
}

// removeAt removes and returns the item at index i.
func (s *items) removeAt(i int) Item {
	v := (*s)[i]
	copy((*s)[i:], (*s)[i+1:])
	(*s)[len(*s)-1] = nil
	*s = (*s)[:len(*s)-1]
	return v
}

// pop removes and returns the last item.
func (s *items) pop() Item {
	v := (*s)[len(*s)-1]
	(*s)[len(*s)-1] = nil
	*s = (*s)[:len(*s)-1]
	return v
}

// find returns the index where v would be inserted and whether an equal
// item already sits at that index.
func (s items) find(v Item) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return v.Less(s[i]) })
	if i > 0 && !s[i-1].Less(v) {
		return i - 1, true
	}
	return i, false
}

// search is find for a comparator: cmp reports where the sought item lies
// relative to the one it is given (negative before it, zero at it,
// positive after it), the contract of sort.Find.
func (s items) search(cmp func(Item) int) (int, bool) {
	return sort.Find(len(s), func(i int) int { return cmp(s[i]) })
}

type children []*node

func (s *children) insertAt(i int, c *node) {
	*s = append(*s, nil)
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = c
}

func (s *children) removeAt(i int) *node {
	c := (*s)[i]
	copy((*s)[i:], (*s)[i+1:])
	(*s)[len(*s)-1] = nil
	*s = (*s)[:len(*s)-1]
	return c
}

func (s *children) pop() *node {
	c := (*s)[len(*s)-1]
	(*s)[len(*s)-1] = nil
	*s = (*s)[:len(*s)-1]
	return c
}

// copyOnWriteContext identifies tree ownership of nodes. A node may only be
// mutated in place by the tree whose cow token matches; otherwise it is
// copied first. Clone() gives both trees fresh tokens so every shared node
// is copied on first write.
//
// The struct must not be zero-sized: distinct allocations of zero-sized
// values can share one address in Go, which would make every token compare
// equal and silently disable copy-on-write.
type copyOnWriteContext struct{ _ byte }

type node struct {
	items    items
	children children
	cow      *copyOnWriteContext
}

func (n *node) mutableFor(cow *copyOnWriteContext) *node {
	if n.cow == cow {
		return n
	}
	out := &node{cow: cow}
	out.items = make(items, len(n.items), cap(n.items))
	copy(out.items, n.items)
	out.children = make(children, len(n.children), cap(n.children))
	copy(out.children, n.children)
	return out
}

func (n *node) mutableChild(i int) *node {
	c := n.children[i].mutableFor(n.cow)
	n.children[i] = c
	return c
}

// split splits node n at index i, returning the separator item and the new
// right-hand node.
func (n *node) split(i int) (Item, *node) {
	item := n.items[i]
	next := &node{cow: n.cow}
	next.items = append(next.items, n.items[i+1:]...)
	for j := i; j < len(n.items); j++ {
		n.items[j] = nil
	}
	n.items = n.items[:i]
	if len(n.children) > 0 {
		next.children = append(next.children, n.children[i+1:]...)
		for j := i + 1; j < len(n.children); j++ {
			n.children[j] = nil
		}
		n.children = n.children[:i+1]
	}
	return item, next
}

// maybeSplitChild splits child i if it is overfull; reports whether a split
// happened.
func (n *node) maybeSplitChild(i, maxItems int) bool {
	if len(n.children[i].items) < maxItems {
		return false
	}
	first := n.mutableChild(i)
	item, second := first.split(maxItems / 2)
	n.items.insertAt(i, item)
	n.children.insertAt(i+1, second)
	return true
}

// insert inserts v into the subtree rooted at n, returning the replaced
// item, if any. n must already be mutable.
func (n *node) insert(v Item, maxItems int) Item {
	i, found := n.items.find(v)
	if found {
		out := n.items[i]
		n.items[i] = v
		return out
	}
	if len(n.children) == 0 {
		n.items.insertAt(i, v)
		return nil
	}
	if n.maybeSplitChild(i, maxItems) {
		switch inTree := n.items[i]; {
		case v.Less(inTree):
			// no change: v goes into the left child
		case inTree.Less(v):
			i++
		default:
			out := n.items[i]
			n.items[i] = v
			return out
		}
	}
	return n.mutableChild(i).insert(v, maxItems)
}

// lookup returns the item search finds in the subtree, or nil. search
// places the sought item in one node's items, as items.find does for a
// key and items.search for a comparator.
func (n *node) lookup(search func(items) (int, bool)) Item {
	i, found := search(n.items)
	if found {
		return n.items[i]
	}
	if len(n.children) > 0 {
		return n.children[i].lookup(search)
	}
	return nil
}

// update puts fn(item) in the place of the item cmp finds in the subtree
// and returns it, or returns nil. n must already be mutable.
func (n *node) update(cmp func(Item) int, fn func(Item) Item) Item {
	i, found := n.items.search(cmp)
	if found {
		n.items[i] = fn(n.items[i])
		return n.items[i]
	}
	if len(n.children) == 0 {
		return nil
	}
	return n.mutableChild(i).update(cmp, fn)
}

type toRemove int

const (
	removeItem toRemove = iota // remove the given item
	removeMin                  // remove the smallest item in the subtree
	removeMax                  // remove the largest item in the subtree
)

// remove deletes an item from the subtree rooted at n. n must be mutable.
func (n *node) remove(key Item, minItems int, typ toRemove) Item {
	var i int
	var found bool
	switch typ {
	case removeMax:
		if len(n.children) == 0 {
			if len(n.items) == 0 {
				return nil
			}
			return n.items.pop()
		}
		i = len(n.items)
	case removeMin:
		if len(n.children) == 0 {
			if len(n.items) == 0 {
				return nil
			}
			return n.items.removeAt(0)
		}
		i = 0
	default:
		i, found = n.items.find(key)
		if len(n.children) == 0 {
			if found {
				return n.items.removeAt(i)
			}
			return nil
		}
	}
	if len(n.children[i].items) <= minItems {
		return n.growChildAndRemove(i, key, minItems, typ)
	}
	child := n.mutableChild(i)
	if found {
		// Replace the separator with its in-order predecessor pulled
		// from the left child.
		out := n.items[i]
		n.items[i] = child.remove(nil, minItems, removeMax)
		return out
	}
	return child.remove(key, minItems, typ)
}

// growChildAndRemove grows child i so it has enough items to lose one, then
// retries the removal on the (possibly merged) child.
func (n *node) growChildAndRemove(i int, key Item, minItems int, typ toRemove) Item {
	if i > 0 && len(n.children[i-1].items) > minItems {
		// Steal from left sibling.
		child := n.mutableChild(i)
		left := n.mutableChild(i - 1)
		child.items.insertAt(0, n.items[i-1])
		n.items[i-1] = left.items.pop()
		if len(left.children) > 0 {
			child.children.insertAt(0, left.children.pop())
		}
	} else if i < len(n.items) && len(n.children[i+1].items) > minItems {
		// Steal from right sibling.
		child := n.mutableChild(i)
		right := n.mutableChild(i + 1)
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items.removeAt(0)
		if len(right.children) > 0 {
			child.children = append(child.children, right.children.removeAt(0))
		}
	} else {
		// Merge with a sibling.
		if i >= len(n.items) {
			i--
		}
		child := n.mutableChild(i)
		mergeItem := n.items.removeAt(i)
		mergeChild := n.children.removeAt(i + 1)
		child.items = append(child.items, mergeItem)
		child.items = append(child.items, mergeChild.items...)
		child.children = append(child.children, mergeChild.children...)
	}
	return n.remove(key, minItems, typ)
}

// iterate walks the subtree in ascending order within [start, stop),
// calling fn for each item; a nil bound is unbounded. includeStart controls
// whether an item equal to start is visited. Returns false when fn stopped
// the walk.
func (n *node) iterate(start, stop Item, includeStart bool, fn func(Item) bool) bool {
	var i int
	if start != nil {
		i, _ = n.items.find(start)
	}
	for ; i < len(n.items); i++ {
		if len(n.children) > 0 {
			if !n.children[i].iterate(start, stop, includeStart, fn) {
				return false
			}
		}
		it := n.items[i]
		if start != nil && !includeStart && !start.Less(it) && !it.Less(start) {
			continue
		}
		if start != nil && it.Less(start) {
			continue
		}
		if stop != nil && !it.Less(stop) {
			return false
		}
		if !fn(it) {
			return false
		}
	}
	if len(n.children) > 0 {
		return n.children[len(n.items)].iterate(start, stop, includeStart, fn)
	}
	return true
}

// BTree is an ordered collection of Items with O(log n) operations and O(1)
// Clone. The zero value is not usable; call New.
type BTree struct {
	degree int
	length int
	root   *node
	cow    *copyOnWriteContext
}

// New returns a BTree with DefaultDegree.
func New() *BTree { return NewWithDegree(DefaultDegree) }

// NewWithDegree returns a BTree with the given branching factor. Degree must
// be at least 2; NewWithDegree panics otherwise.
func NewWithDegree(degree int) *BTree {
	if degree < 2 {
		panic("btree: degree must be >= 2")
	}
	return &BTree{degree: degree, cow: &copyOnWriteContext{}}
}

func (t *BTree) maxItems() int { return t.degree*2 - 1 }
func (t *BTree) minItems() int { return t.degree - 1 }

// Clone returns a snapshot of the tree in O(1). The clone and the original
// share structure; writes to either copy shared nodes lazily, so both stay
// independently consistent.
func (t *BTree) Clone() *BTree {
	out := *t
	// Give BOTH trees fresh cow tokens: every shared node now belongs to
	// neither, so the first writer of any node copies it.
	t.cow = &copyOnWriteContext{}
	out.cow = &copyOnWriteContext{}
	return &out
}

// ReplaceOrInsert adds v to the tree, replacing and returning an equal item
// if one exists, or nil. It panics if v is nil.
func (t *BTree) ReplaceOrInsert(v Item) Item {
	if v == nil {
		panic("btree: nil item")
	}
	if t.root == nil {
		t.root = &node{cow: t.cow}
		t.root.items = append(t.root.items, v)
		t.length = 1
		return nil
	}
	t.root = t.root.mutableFor(t.cow)
	if len(t.root.items) >= t.maxItems() {
		sep, second := t.root.split(t.maxItems() / 2)
		oldRoot := t.root
		t.root = &node{cow: t.cow}
		t.root.items = append(t.root.items, sep)
		t.root.children = append(t.root.children, oldRoot, second)
	}
	out := t.root.insert(v, t.maxItems())
	if out == nil {
		t.length++
	}
	return out
}

// Get returns the item equal to key, or nil.
func (t *BTree) Get(key Item) Item {
	if t.root == nil || key == nil {
		return nil
	}
	return t.root.lookup(func(s items) (int, bool) { return s.find(key) })
}

// Find returns the item cmp finds, or nil. cmp reports where the sought
// item lies relative to the one it is given: negative before it, zero at
// it, positive after it. A search key is then whatever cmp closes over,
// not an Item, so a lookup by a plain value allocates nothing.
func (t *BTree) Find(cmp func(Item) int) Item {
	if t.root == nil {
		return nil
	}
	return t.root.lookup(func(s items) (int, bool) { return s.search(cmp) })
}

// Update replaces the item cmp finds (as in Find) with fn(item) in the
// same descent and returns fn's result; when cmp finds nothing it calls
// no fn and returns nil. fn must return an item equal to the one it is
// given, and returning that item keeps it. Like every write, Update copies
// the nodes it descends through that a clone still shares, so the clone
// keeps the old item.
func (t *BTree) Update(cmp func(Item) int, fn func(old Item) Item) Item {
	if t.root == nil {
		return nil
	}
	t.root = t.root.mutableFor(t.cow)
	return t.root.update(cmp, fn)
}

// Has reports whether an item equal to key is in the tree.
func (t *BTree) Has(key Item) bool { return t.Get(key) != nil }

// Delete removes and returns the item equal to key, or nil.
func (t *BTree) Delete(key Item) Item {
	if t.root == nil || len(t.root.items) == 0 || key == nil {
		return nil
	}
	t.root = t.root.mutableFor(t.cow)
	out := t.root.remove(key, t.minItems(), removeItem)
	if len(t.root.items) == 0 && len(t.root.children) > 0 {
		t.root = t.root.children[0]
	}
	if out != nil {
		t.length--
	}
	return out
}

// Len returns the number of items in the tree.
func (t *BTree) Len() int { return t.length }

// Ascend visits every item in ascending order until fn returns false.
func (t *BTree) Ascend(fn func(Item) bool) {
	if t.root == nil {
		return
	}
	t.root.iterate(nil, nil, true, fn)
}

// AscendRange visits items in [greaterOrEqual, lessThan) ascending until fn
// returns false. Either bound may be nil for unbounded.
func (t *BTree) AscendRange(greaterOrEqual, lessThan Item, fn func(Item) bool) {
	if t.root == nil {
		return
	}
	t.root.iterate(greaterOrEqual, lessThan, true, fn)
}

// AscendGreaterOrEqual visits items >= pivot in ascending order.
func (t *BTree) AscendGreaterOrEqual(pivot Item, fn func(Item) bool) {
	t.AscendRange(pivot, nil, fn)
}

// Min returns the smallest item, or nil when empty.
func (t *BTree) Min() Item {
	n := t.root
	if n == nil {
		return nil
	}
	for len(n.children) > 0 {
		n = n.children[0]
	}
	if len(n.items) == 0 {
		return nil
	}
	return n.items[0]
}

// Max returns the largest item, or nil when empty.
func (t *BTree) Max() Item {
	n := t.root
	if n == nil {
		return nil
	}
	for len(n.children) > 0 {
		n = n.children[len(n.children)-1]
	}
	if len(n.items) == 0 {
		return nil
	}
	return n.items[len(n.items)-1]
}
