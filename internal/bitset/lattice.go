package bitset

import "slices"

// This file holds the apriori candidate generation of the attribute
// lattice (paper Sec. 2.3): the join that builds level k+1 from level k.

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
