package bitset

import "slices"

// This file holds attribute-lattice helpers shared by the level-wise
// algorithms (TANE, FUN, the apriori UCC baseline) and by the sub-lattice
// construction of MUDS' R\Z phase (paper Sec. 4.2, Fig. 3).

// Level enumerates all subsets of base with exactly k columns. It corresponds
// to one level of the Hasse diagram in Fig. 1 of the paper restricted to the
// columns of base.
func Level(base Set, k int) []Set {
	var out []Set
	base.SubsetsOfSize(k, func(sub Set) bool {
		out = append(out, sub)
		return true
	})
	return out
}

// LatticeSize returns the number of non-empty nodes of the lattice over n
// attributes: 2^n - 1. It panics for n > 62 (the count no longer fits an
// int64; no caller materialises lattices anywhere near that size).
func LatticeSize(n int) int64 {
	if n < 0 || n > 62 {
		panic("bitset: lattice size out of int64 range")
	}
	return (int64(1) << n) - 1
}

// FDCandidateCount returns the number of FD candidates over n attributes,
// sum_{k=1..n} C(n,k)*(n-k), the edge count of the lattice (paper Sec. 2.3).
func FDCandidateCount(n int) int64 {
	if n < 0 || n > 57 {
		panic("bitset: FD candidate count out of int64 range")
	}
	var total int64
	for k := 1; k <= n; k++ {
		total += binomial(n, k) * int64(n-k)
	}
	return total
}

// INDCandidateCount returns the number of unary IND candidates over n
// attributes: n*(n-1) (paper Sec. 2.1).
func INDCandidateCount(n int) int64 {
	return int64(n) * int64(n-1)
}

func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := int64(1)
	for i := 1; i <= k; i++ {
		res = res * int64(n-k+i) / int64(i)
	}
	return res
}

// AprioriGen generates the candidate sets of level k+1 from the sets of
// level k in the classic apriori style: two level-k sets sharing a (k-1)
// prefix are merged, and the merged candidate is kept only if every direct
// subset is present in the previous level. prev must contain sets of a single
// uniform size; duplicates are ignored. The result is in Sort order and
// duplicate-free.
//
// Sorting groups the sets that share their first k-1 columns into adjacent
// blocks, so only pairs inside a block are joined. The two parents are the
// merged set's subsets without its last and without its second-to-last
// column; only the k-1 subsets that drop a prefix column are looked up. The
// join emits candidates in Sort order (prefix, then the two last columns in
// ascending order), and each (k+1)-set has exactly one parent pair.
func AprioriGen(prev []Set) []Set {
	if len(prev) == 0 {
		return nil
	}
	sorted := slices.Clone(prev)
	Sort(sorted)
	sorted = slices.Compact(sorted)
	if sorted[0].IsEmpty() {
		return nil // {∅} has no pair to join, and ∅ no last column
	}
	present := make(map[Set]struct{}, len(sorted))
	for _, s := range sorted {
		present[s] = struct{}{}
	}

	var out []Set
	for start := 0; start < len(sorted); {
		prefix := sorted[start].Without(sorted[start].Last())
		end := start + 1
		for end < len(sorted) && sorted[end].Without(sorted[end].Last()) == prefix {
			end++
		}
		for i := start; i < end; i++ {
			for j := i + 1; j < end; j++ {
				merged := sorted[i].With(sorted[j].Last())
				if allPresent(present, merged, prefix) {
					out = append(out, merged)
				}
			}
		}
		start = end
	}
	return out
}

// allPresent reports whether merged \ {c} is in present for every c ∈ prefix.
func allPresent(present map[Set]struct{}, merged, prefix Set) bool {
	for c := prefix.First(); c >= 0; c = prefix.NextAfter(c) {
		if _, ok := present[merged.Without(c)]; !ok {
			return false
		}
	}
	return true
}

// SubLattice describes the lattice of left-hand-side candidates for one fixed
// right-hand-side column (paper Sec. 4.2, Fig. 3): all subsets of Base, where
// Base excludes the right-hand side.
type SubLattice struct {
	// RHS is the fixed right-hand-side column the sub-lattice belongs to.
	RHS int
	// Base is the set of columns available as left-hand-side attributes.
	Base Set
}

// SubLattices constructs one sub-lattice per column of rhsCols over the
// relation columns all (paper Fig. 3 uses rhsCols = all; MUDS restricts
// rhsCols to R\Z).
func SubLattices(all Set, rhsCols Set) []SubLattice {
	var out []SubLattice
	rhsCols.ForEach(func(c int) {
		out = append(out, SubLattice{RHS: c, Base: all.Without(c)})
	})
	return out
}
