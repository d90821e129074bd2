package settrie

import "holistic/internal/bitset"

// MinimalFamily maintains an antichain of ⊆-minimal sets: inserting a set
// that has a stored subset is a no-op, and inserting a new set removes its
// stored supersets. It backs the minimal-UCC store of DUCC/MUDS and the
// per-right-hand-side minimal FD left-hand-side stores.
type MinimalFamily struct {
	trie Trie
}

// Add inserts s if no stored set is a subset of s; it removes stored proper
// supersets of s. It reports whether s entered the family.
func (f *MinimalFamily) Add(s bitset.Set) bool {
	if f.trie.ContainsSubsetOf(s) {
		return false
	}
	for _, sup := range f.trie.SupersetsOf(s) {
		f.trie.Remove(sup)
	}
	f.trie.Add(s)
	return true
}

// Len returns the number of minimal sets stored.
func (f *MinimalFamily) Len() int { return f.trie.Len() }

// Contains reports whether exactly s is stored.
func (f *MinimalFamily) Contains(s bitset.Set) bool { return f.trie.Contains(s) }

// CoversSubsetOf reports whether a stored set is a subset of x. For a
// minimal-UCC family this asks "is x (a superset of) a UCC?"; for a minimal
// FD-lhs family it asks "is x a known (non-minimal) lhs?".
func (f *MinimalFamily) CoversSubsetOf(x bitset.Set) bool {
	return f.trie.ContainsSubsetOf(x)
}

// SubsetsOf returns all stored sets contained in x.
func (f *MinimalFamily) SubsetsOf(x bitset.Set) []bitset.Set {
	return f.trie.SubsetsOf(x)
}

// SupersetsOf returns all stored sets containing x (connector look-up).
func (f *MinimalFamily) SupersetsOf(x bitset.Set) []bitset.Set {
	return f.trie.SupersetsOf(x)
}

// ContainsSupersetOf reports whether a stored set contains x.
func (f *MinimalFamily) ContainsSupersetOf(x bitset.Set) bool {
	return f.trie.ContainsSupersetOf(x)
}

// All returns the stored sets in deterministic order.
func (f *MinimalFamily) All() []bitset.Set { return f.trie.All() }

// ForEach visits the stored sets; fn returning false stops early.
func (f *MinimalFamily) ForEach(fn func(bitset.Set) bool) { f.trie.ForEach(fn) }

// Union returns the union of all stored sets (the set Z of paper Sec. 4 when
// the family holds the minimal UCCs).
func (f *MinimalFamily) Union() bitset.Set {
	var u bitset.Set
	f.trie.ForEach(func(s bitset.Set) bool {
		u = u.Union(s)
		return true
	})
	return u
}

// MaximalFamily maintains an antichain of ⊆-maximal sets: inserting a set
// that has a stored superset is a no-op, and inserting a new set removes its
// stored subsets. It backs the maximal non-UCC and maximal non-FD-lhs stores
// used for downward pruning (Lemma 4).
type MaximalFamily struct {
	trie Trie
}

// Add inserts s if no stored set is a superset of s; it removes stored
// proper subsets of s. It reports whether s entered the family.
func (f *MaximalFamily) Add(s bitset.Set) bool {
	if f.trie.ContainsSupersetOf(s) {
		return false
	}
	for _, sub := range f.trie.SubsetsOf(s) {
		f.trie.Remove(sub)
	}
	f.trie.Add(s)
	return true
}

// Len returns the number of maximal sets stored.
func (f *MaximalFamily) Len() int { return f.trie.Len() }

// Contains reports whether exactly s is stored.
func (f *MaximalFamily) Contains(s bitset.Set) bool { return f.trie.Contains(s) }

// CoversSupersetOf reports whether a stored set contains x. For a maximal
// non-UCC family this asks "is x (a subset of) a known non-UCC?".
func (f *MaximalFamily) CoversSupersetOf(x bitset.Set) bool {
	return f.trie.ContainsSupersetOf(x)
}

// All returns the stored sets in deterministic order.
func (f *MaximalFamily) All() []bitset.Set { return f.trie.All() }

// ForEach visits the stored sets; fn returning false stops early.
func (f *MaximalFamily) ForEach(fn func(bitset.Set) bool) { f.trie.ForEach(fn) }
