// Package btree implements an in-memory B+tree mapping scalar keys to
// tuple identifiers. It backs two kinds of secondary indexes:
//
//   - attribute indexes (ascending iteration; sort-merge joins, scan-based
//     selection), and
//   - rank indexes on ranking-predicate scores (descending iteration; the
//     paper's rank-scan / idxScan_p operator).
//
// Duplicate keys are allowed; entries are totally ordered by (key, TID) so
// iteration order is deterministic.
//
// Trees are updated in place and entries are never removed. An iterator
// stays valid across inserts: it notices that the tree changed and
// re-seeks just past the last entry it returned, so it neither repeats
// nor skips an entry. Entries inserted ahead of it may appear; scans that
// need a snapshot drop them by TID.
package btree

import (
	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// degree is the maximum number of entries in a node. Chosen for cache
// friendliness; correctness does not depend on it.
const degree = 64

// Entry is one key → TID mapping.
type Entry struct {
	Key types.Value
	TID schema.TID
}

// compareEntries orders entries by key then TID.
func compareEntries(a, b Entry) int {
	if c := types.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.TID < b.TID:
		return -1
	case a.TID > b.TID:
		return 1
	default:
		return 0
	}
}

type node struct {
	// entries holds the node's keys. For leaves these are the stored
	// entries; for internal nodes entries[i] is the smallest entry of
	// children[i+1]'s subtree (separator keys).
	entries  []Entry
	children []*node // nil for leaves
	next     *node   // leaf-chain forward pointer
	prev     *node   // leaf-chain backward pointer
}

func (n *node) leaf() bool { return n.children == nil }

// Tree is the B+tree. The zero value is not usable; call New.
type Tree struct {
	root *node
	size int
	// mods counts Inserts; an iterator positioned under an older count
	// re-seeks before it reads a node.
	mods uint64
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// searchLeaf descends to the leaf that should contain e.
func (t *Tree) searchLeaf(e Entry) *node {
	n := t.root
	for !n.leaf() {
		n = n.children[childIndex(n, e)]
	}
	return n
}

// childIndex picks the child slot to descend into for entry e: the first
// child whose separator is strictly greater than e, i.e. upperBound.
func childIndex(n *node, e Entry) int {
	lo, hi := 0, len(n.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntries(n.entries[mid], e) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first index i with entries[i] >= e.
func lowerBound(entries []Entry, e Entry) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntries(entries[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds an entry. Duplicate (key, TID) pairs are stored once.
// Insertion splits full nodes preemptively on the way down, so no node ever
// exceeds the degree.
func (t *Tree) Insert(key types.Value, tid schema.TID) {
	t.mods++
	e := Entry{Key: key, TID: tid}
	if len(t.root.entries) >= degree {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.splitChild(t.root, 0)
	}
	n := t.root
	for !n.leaf() {
		i := childIndex(n, e)
		child := n.children[i]
		if len(child.entries) >= degree {
			t.splitChild(n, i)
			// Re-pick: the split may route e to the new sibling.
			i = childIndex(n, e)
			child = n.children[i]
		}
		n = child
	}
	i := lowerBound(n.entries, e)
	if i < len(n.entries) && compareEntries(n.entries[i], e) == 0 {
		return // already present
	}
	n.entries = append(n.entries, Entry{})
	copy(n.entries[i+1:], n.entries[i:])
	n.entries[i] = e
	t.size++
}

// splitChild splits parent.children[i] in half, inserting the separator
// into parent.
func (t *Tree) splitChild(parent *node, i int) {
	child := parent.children[i]
	mid := len(child.entries) / 2
	var sib *node
	var sep Entry
	if child.leaf() {
		sib = &node{entries: append([]Entry(nil), child.entries[mid:]...)}
		child.entries = child.entries[:mid:mid]
		sep = sib.entries[0]
		// Hook into leaf chain.
		sib.next = child.next
		if sib.next != nil {
			sib.next.prev = sib
		}
		sib.prev = child
		child.next = sib
	} else {
		sep = child.entries[mid]
		sib = &node{
			entries:  append([]Entry(nil), child.entries[mid+1:]...),
			children: append([]*node(nil), child.children[mid+1:]...),
		}
		child.entries = child.entries[:mid:mid]
		child.children = child.children[: mid+1 : mid+1]
	}
	parent.entries = append(parent.entries, Entry{})
	copy(parent.entries[i+1:], parent.entries[i:])
	parent.entries[i] = sep
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = sib
}

// lastLeaf returns the rightmost leaf.
func (t *Tree) lastLeaf() *node {
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n
}

// Iterator walks entries in ascending or descending order. It survives
// Inserts into its tree: Next re-seeks when the tree's modification count
// has moved since the iterator was last positioned.
//
// An Insert must not run concurrently with Next. The engine guarantees it:
// trees change only under the database's write lock, and every Next runs
// under its read lock.
type Iterator struct {
	tree *Tree
	mods uint64 // tree.mods when leaf/idx were positioned
	leaf *node
	idx  int
	desc bool
	// pos is the entry Next returned last; until started, an ascending
	// iterator's pos is its start bound instead.
	pos     Entry
	started bool
}

// Ascend returns an iterator over all entries in ascending (key, TID) order.
func (t *Tree) Ascend() *Iterator {
	return t.SeekGE(types.Value{}) // the zero Value is NULL, which sorts first
}

// Descend returns an iterator over all entries in descending (key, TID)
// order. This is the access path of the rank-scan operator, which streams
// tuples from the highest predicate score down.
func (t *Tree) Descend() *Iterator {
	it := &Iterator{tree: t, desc: true}
	it.seek()
	return it
}

// SeekGE returns an ascending iterator positioned at the first entry with
// key >= key (any TID).
func (t *Tree) SeekGE(key types.Value) *Iterator {
	it := &Iterator{tree: t, pos: Entry{Key: key, TID: 0}}
	it.seek()
	return it
}

// seek positions the iterator under the tree's current shape: just past
// the last entry it returned, or at its start if it has returned none.
// Entries are never removed and (key, TID) is a total order, so pos is
// still in the tree and the position is exact.
func (it *Iterator) seek() {
	t := it.tree
	it.mods = t.mods
	if it.desc && !it.started {
		it.leaf = t.lastLeaf()
		it.idx = len(it.leaf.entries) - 1
		return
	}
	it.leaf = t.searchLeaf(it.pos)
	it.idx = lowerBound(it.leaf.entries, it.pos)
	switch {
	case it.desc:
		it.idx-- // the last entry below pos
	case it.started:
		it.idx++ // the first entry above pos
	}
}

// Next returns the next entry, or ok=false when exhausted.
func (it *Iterator) Next() (Entry, bool) {
	if it.mods != it.tree.mods {
		it.seek()
	}
	if it.desc {
		for it.leaf != nil && it.idx < 0 {
			it.leaf = it.leaf.prev
			if it.leaf != nil {
				it.idx = len(it.leaf.entries) - 1
			}
		}
	} else {
		for it.leaf != nil && it.idx >= len(it.leaf.entries) {
			it.leaf = it.leaf.next
			it.idx = 0
		}
	}
	if it.leaf == nil {
		return Entry{}, false
	}
	e := it.leaf.entries[it.idx]
	if it.desc {
		it.idx--
	} else {
		it.idx++
	}
	it.pos, it.started = e, true
	return e, true
}
