package ucc

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/pli"
	"holistic/internal/settrie"
	"holistic/internal/walker"
)

// AgreeSet discovers all minimal UCCs with the row-based strategy of
// Gordian (paper Sec. 7): first determine the *maximal non-unique* column
// combinations, then derive the minimal UCCs from them by complementation.
//
// A column set is non-unique iff two rows agree on it, so the maximal
// non-unique sets are exactly the maximal "agree sets" over row pairs.
// Candidate pairs are enumerated from the single-column PLI clusters (a
// pair that agrees nowhere has an empty agree set and contributes
// nothing); the minimal UCCs are then the minimal hitting sets of the
// complements of the maximal agree sets — the same duality DUCC's hole
// detection uses, but computed here entirely from the row data, without a
// single lattice-node uniqueness check.
//
// The pair enumeration is quadratic in the largest cluster, which is the
// known weakness of row-based discovery on low-cardinality data ("costly
// if the number of maximal non-UCCs is large", Sec. 7); it shines on
// near-unique data where clusters are tiny.
func AgreeSet(p *pli.Provider) Result {
	rel := p.Relation()
	n := rel.NumColumns()
	var res Result
	if n == 0 {
		return res
	}

	cols := make([][]int32, n)
	for c := 0; c < n; c++ {
		cols[c] = rel.Column(c)
	}

	// Enumerate candidate pairs once per co-cluster occurrence; dedup by
	// (smaller row, larger row).
	var maximal settrie.MaximalFamily
	type pair struct{ a, b int32 }
	seen := make(map[pair]bool)
	for c := 0; c < n; c++ {
		p.SingleColumn(c).ForEachCluster(func(cluster []int32) {
			for i := 0; i < len(cluster); i++ {
				for j := i + 1; j < len(cluster); j++ {
					pr := pair{cluster[i], cluster[j]}
					if pr.a > pr.b {
						pr.a, pr.b = pr.b, pr.a
					}
					if seen[pr] {
						continue
					}
					seen[pr] = true
					res.Checks++
					maximal.Add(agreeSet(cols, pr.a, pr.b))
				}
			}
		})
	}

	all := rel.AllColumns()
	res.MaximalNonUnique = maximal.All()
	bitset.Sort(res.MaximalNonUnique)

	if maximal.Len() == 0 {
		// No two rows agree anywhere: every single column is unique.
		all.ForEach(func(c int) {
			res.Minimal = append(res.Minimal, bitset.Single(c))
		})
		return res
	}

	complements := make([]bitset.Set, 0, maximal.Len())
	for _, m := range res.MaximalNonUnique {
		complements = append(complements, all.Diff(m))
	}
	// Without a context the enumeration cannot fail.
	hits, _ := walker.MinimalHittingSets(context.Background(), complements, all)
	for _, u := range hits {
		if !u.IsEmpty() {
			res.Minimal = append(res.Minimal, u)
		}
	}
	bitset.Sort(res.Minimal)
	return res
}

// agreeSet returns the columns on which rows a and b agree.
func agreeSet(cols [][]int32, a, b int32) bitset.Set {
	var s bitset.Set
	for c, col := range cols {
		if col[a] == col[b] {
			s = s.With(c)
		}
	}
	return s
}
