package settrie

import "holistic/internal/bitset"

// MinimalFamily maintains an antichain of ⊆-minimal sets: inserting a set
// that has a stored subset is a no-op, and inserting a new set removes its
// stored supersets. It backs the minimal-UCC store of DUCC/MUDS and the
// per-right-hand-side minimal FD left-hand-side stores.
type MinimalFamily struct {
	ix Index
}

// Add inserts s if no stored set is a subset of s; it removes stored proper
// supersets of s. It reports whether s entered the family.
func (f *MinimalFamily) Add(s bitset.Set) bool {
	if f.ix.hasSubsetOf(s) {
		return false
	}
	f.ix.remove(s, bitset.Set{})
	f.ix.Add(s)
	return true
}

// Contains reports whether exactly s is stored.
func (f *MinimalFamily) Contains(s bitset.Set) bool { return f.ix.contains(s) }

// CoversSubsetOf reports whether a stored set is a subset of x. For a
// minimal-UCC family this asks "is x (a superset of) a UCC?"; for a minimal
// FD-lhs family it asks "is x a known (non-minimal) lhs?".
func (f *MinimalFamily) CoversSubsetOf(x bitset.Set) bool {
	return f.ix.hasSubsetOf(x)
}

// All returns the stored sets in insertion order.
func (f *MinimalFamily) All() []bitset.Set { return f.ix.all() }

// MaximalFamily maintains an antichain of ⊆-maximal sets: inserting a set
// that has a stored superset is a no-op, and inserting a new set removes its
// stored subsets. It backs the maximal non-UCC and maximal non-FD-lhs stores
// used for downward pruning (Lemma 4).
type MaximalFamily struct {
	ix Index
}

// Add inserts s if no stored set is a superset of s; it removes stored
// proper subsets of s. It reports whether s entered the family.
func (f *MaximalFamily) Add(s bitset.Set) bool {
	if f.ix.hasSupersetOf(s) {
		return false
	}
	f.ix.remove(bitset.Set{}, f.ix.used.Diff(s))
	f.ix.Add(s)
	return true
}

// CoversSupersetOf reports whether a stored set contains x. For a maximal
// non-UCC family this asks "is x (a subset of) a known non-UCC?".
func (f *MaximalFamily) CoversSupersetOf(x bitset.Set) bool {
	return f.ix.hasSupersetOf(x)
}

// All returns the stored sets in insertion order.
func (f *MaximalFamily) All() []bitset.Set { return f.ix.all() }
