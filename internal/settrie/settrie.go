// Package settrie implements a prefix tree over column combinations (paper
// Sec. 5.4, Fig. 5). Column sets are stored as their sorted column sequences;
// the trie answers subset and superset queries without scanning all stored
// sets, which MUDS needs for connector look-ups (supersets of a connector)
// and shadowed-FD pruning (minimal UCCs inside a left-hand side).
//
// On top of the plain trie, MinimalFamily and MaximalFamily maintain
// antichains of minimal respectively maximal sets, the stores used for
// minimal UCCs / FD left-hand sides and for maximal non-UCCs / non-FDs.
package settrie

import (
	"sort"

	"holistic/internal/bitset"
)

// node keeps its children as parallel slices sorted by column, so traversals
// iterate in deterministic order without per-visit sorting and lookups are a
// binary search. The discovery algorithms hammer these operations (every
// pruning decision is a trie query), which is why no map is used here.
type node struct {
	cols     []int
	children []*node
	terminal bool
}

func (n *node) childIndex(col int) int {
	// Nodes are narrow in practice; a linear scan beats binary search until
	// the fan-out gets large.
	if len(n.cols) <= 16 {
		for i, c := range n.cols {
			if c >= col {
				return i
			}
		}
		return len(n.cols)
	}
	return sort.SearchInts(n.cols, col)
}

func (n *node) child(col int) *node {
	i := n.childIndex(col)
	if i < len(n.cols) && n.cols[i] == col {
		return n.children[i]
	}
	return nil
}

func (n *node) ensureChild(col int) *node {
	i := n.childIndex(col)
	if i < len(n.cols) && n.cols[i] == col {
		return n.children[i]
	}
	c := &node{}
	n.cols = append(n.cols, 0)
	copy(n.cols[i+1:], n.cols[i:])
	n.cols[i] = col
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
	return c
}

func (n *node) removeChild(col int) {
	i := n.childIndex(col)
	if i >= len(n.cols) || n.cols[i] != col {
		return
	}
	n.cols = append(n.cols[:i], n.cols[i+1:]...)
	n.children = append(n.children[:i], n.children[i+1:]...)
}

func (n *node) empty() bool {
	return !n.terminal && len(n.cols) == 0
}

// Trie is a set of column combinations supporting subset/superset queries.
// The zero value is an empty trie ready for use.
type Trie struct {
	root node
	size int
}

// Len returns the number of stored sets.
func (t *Trie) Len() int { return t.size }

// Add inserts s and reports whether it was not already present. The empty
// set is a valid element (stored at the root).
func (t *Trie) Add(s bitset.Set) bool {
	n := &t.root
	s.ForEach(func(c int) {
		n = n.ensureChild(c)
	})
	if n.terminal {
		return false
	}
	n.terminal = true
	t.size++
	return true
}

// Contains reports whether exactly s is stored.
func (t *Trie) Contains(s bitset.Set) bool {
	n := &t.root
	for c := s.First(); c >= 0; c = s.NextAfter(c) {
		if n = n.child(c); n == nil {
			return false
		}
	}
	return n.terminal
}

// Remove deletes s and reports whether it was present.
func (t *Trie) Remove(s bitset.Set) bool {
	if !remove(&t.root, s, s.First()) {
		return false
	}
	t.size--
	return true
}

// remove deletes the suffix of s starting at column c from the subtree of n
// and prunes the child nodes it leaves empty.
func remove(n *node, s bitset.Set, c int) bool {
	if c < 0 {
		if !n.terminal {
			return false
		}
		n.terminal = false
		return true
	}
	child := n.child(c)
	if child == nil || !remove(child, s, s.NextAfter(c)) {
		return false
	}
	if child.empty() {
		n.removeChild(c)
	}
	return true
}

// ContainsSubsetOf reports whether some stored set is a subset of x
// (including x itself and the empty set).
func (t *Trie) ContainsSubsetOf(x bitset.Set) bool {
	return containsSubsetOf(&t.root, x, x.Last())
}

// containsSubsetOf descends into every child whose column is in x. Paths
// ascend, so a path stays inside x exactly when each of its columns is in x,
// and no child beyond x's last column can start one.
func containsSubsetOf(n *node, x bitset.Set, last int) bool {
	if n.terminal {
		return true
	}
	for i, c := range n.cols {
		if c > last {
			return false
		}
		if x.Has(c) && containsSubsetOf(n.children[i], x, last) {
			return true
		}
	}
	return false
}

// SubsetsOf returns all stored sets that are subsets of x, in deterministic
// (sorted-path) order.
func (t *Trie) SubsetsOf(x bitset.Set) []bitset.Set {
	var out []bitset.Set
	subsetsOf(&t.root, x, bitset.Set{}, &out)
	return out
}

func subsetsOf(n *node, x bitset.Set, path bitset.Set, out *[]bitset.Set) {
	if n.terminal {
		*out = append(*out, path)
	}
	for i, c := range n.cols {
		if x.Has(c) {
			subsetsOf(n.children[i], x, path.With(c), out)
		}
	}
}

// ContainsSupersetOf reports whether some stored set is a superset of x
// (including x itself).
func (t *Trie) ContainsSupersetOf(x bitset.Set) bool {
	return containsSupersetOf(&t.root, x, x.First())
}

// containsSupersetOf searches the subtree of n for a stored set holding the
// columns of x from next on. Only children up to next can still reach it,
// and the child at next consumes it. Remove prunes the nodes it empties, so
// every node lies on the path of a stored set.
func containsSupersetOf(n *node, x bitset.Set, next int) bool {
	if next < 0 {
		return n.terminal || len(n.cols) > 0
	}
	for i, c := range n.cols {
		if c > next {
			return false
		}
		after := next
		if c == next {
			after = x.NextAfter(next)
		}
		if containsSupersetOf(n.children[i], x, after) {
			return true
		}
	}
	return false
}

// SupersetsOf returns all stored sets that are supersets of x, in
// deterministic order.
func (t *Trie) SupersetsOf(x bitset.Set) []bitset.Set {
	var out []bitset.Set
	supersetsOf(&t.root, x, x.First(), bitset.Set{}, &out)
	return out
}

// supersetsOf appends, in sorted-path order, every stored set in the subtree
// of n (reached along path) that holds the columns of x from next on.
func supersetsOf(n *node, x bitset.Set, next int, path bitset.Set, out *[]bitset.Set) {
	if next < 0 {
		forEach(n, path, func(s bitset.Set) bool {
			*out = append(*out, s)
			return true
		})
		return
	}
	for i, c := range n.cols {
		if c > next {
			return
		}
		after := next
		if c == next {
			after = x.NextAfter(next)
		}
		supersetsOf(n.children[i], x, after, path.With(c), out)
	}
}

// All returns every stored set in deterministic order.
func (t *Trie) All() []bitset.Set {
	var out []bitset.Set
	t.ForEach(func(s bitset.Set) bool {
		out = append(out, s)
		return true
	})
	return out
}

// ForEach visits every stored set in deterministic order; fn returning false
// stops the traversal.
func (t *Trie) ForEach(fn func(s bitset.Set) bool) {
	forEach(&t.root, bitset.Set{}, fn)
}

func forEach(n *node, path bitset.Set, fn func(bitset.Set) bool) bool {
	if n.terminal && !fn(path) {
		return false
	}
	for i, c := range n.cols {
		if !forEach(n.children[i], path.With(c), fn) {
			return false
		}
	}
	return true
}
