// Package oracle holds the exactness references that the tests of the
// discovery packages compare against: brute-force UCC and FD enumeration by
// explicit row grouping, and the row-based agree-set UCC discovery. It is
// imported only from _test.go files; no binary links it (verify.sh checks).
//
// The oracles read nothing but a relation's encoded columns and share no
// code with the PLI-based algorithms. So that the tests of ucc, fd, core and
// pli can import it, the package imports only bitset, relation, settrie and
// walker, and returns neutral types: column sets for UCCs and FD values
// whose underlying type matches fd.FD.
package oracle

import (
	"cmp"
	"context"
	"encoding/binary"
	"slices"

	"holistic/internal/bitset"
	"holistic/internal/relation"
	"holistic/internal/settrie"
	"holistic/internal/walker"
)

// MustRelation is relation.New for statically known-good test inputs: it
// panics on an error.
func MustRelation(name string, columnNames []string, rows [][]string) *relation.Relation {
	r, err := relation.New(name, columnNames, rows)
	if err != nil {
		panic(err)
	}
	return r
}

// UCCs enumerates the lattice level-wise and checks every candidate that is
// not a superset of a found UCC by grouping rows on their value tuples. It
// returns the minimal UCCs sorted by bitset.Sort. Its cost is exponential
// in the column count, so callers keep relations narrow.
func UCCs(rel *relation.Relation) []bitset.Set {
	n := rel.NumColumns()
	var minimal settrie.MinimalFamily
	base := bitset.Full(n)
	for k := 1; k <= n; k++ {
		base.SubsetsOfSize(k, func(s bitset.Set) bool {
			if !minimal.CoversSubsetOf(s) && Unique(rel, s) {
				minimal.Add(s)
			}
			return true
		})
	}
	out := minimal.All()
	bitset.Sort(out)
	return out
}

// Unique reports whether no two rows agree on every column of s.
func Unique(rel *relation.Relation, s bitset.Set) bool {
	seen := make(map[string]bool, rel.NumRows())
	var key []byte
	for row := 0; row < rel.NumRows(); row++ {
		key = rowKey(key[:0], rel, s, row)
		if seen[string(key)] {
			return false
		}
		seen[string(key)] = true
	}
	return true
}

// FD is a functional dependency LHS → RHS. Its underlying type is fd.FD's,
// so fd.FD(f) converts it.
type FD struct {
	LHS bitset.Set
	RHS int
}

// FDs computes all minimal, non-trivial FDs by explicit row grouping. Per
// right-hand side it enumerates the left-hand side lattice level-wise from
// the empty set and skips supersets of found left-hand sides, so a constant
// column A yields exactly ∅ → A. The result is sorted by (LHS, RHS) in
// bitset.Less order; its cost is exponential in the column count.
func FDs(rel *relation.Relation) []FD {
	var out []FD
	all := bitset.Full(rel.NumColumns())
	all.ForEach(func(a int) {
		base := all.Without(a)
		var found settrie.MinimalFamily
		for k := 0; k <= base.Len(); k++ {
			base.SubsetsOfSize(k, func(lhs bitset.Set) bool {
				if !found.CoversSubsetOf(lhs) && Holds(rel, lhs, a) {
					found.Add(lhs)
					out = append(out, FD{LHS: lhs, RHS: a})
				}
				return true
			})
		}
	})
	sortFDs(out)
	return out
}

// Holds checks lhs → a by grouping rows on their lhs values and verifying
// that the a-value is constant within every group.
func Holds(rel *relation.Relation, lhs bitset.Set, a int) bool {
	colA := rel.Column(a)
	groups := make(map[string]int32, rel.NumRows())
	var key []byte
	for row := 0; row < rel.NumRows(); row++ {
		key = rowKey(key[:0], rel, lhs, row)
		if prev, ok := groups[string(key)]; ok {
			if prev != colA[row] {
				return false
			}
		} else {
			groups[string(key)] = colA[row]
		}
	}
	return true
}

// rowKey appends the codes of row on the columns of s to key.
func rowKey(key []byte, rel *relation.Relation, s bitset.Set, row int) []byte {
	s.ForEach(func(c int) {
		key = binary.LittleEndian.AppendUint32(key, uint32(rel.Column(c)[row]))
	})
	return key
}

// AgreeSets returns the maximal agree sets of rel's row pairs, sorted: the
// maximal column sets on which two rows agree. A column set is non-unique
// iff two rows agree on it, so these are exactly the maximal non-unique
// column combinations. Candidate pairs come from grouping each column's
// rows by code; a pair that agrees nowhere contributes nothing, and a pair
// counts only in the group of the lowest column it agrees on. The cost is
// quadratic in the largest group.
func AgreeSets(rel *relation.Relation) []bitset.Set {
	n := rel.NumColumns()
	cols := make([][]int32, n)
	for c := range cols {
		cols[c] = rel.Column(c)
	}
	seen := make(map[bitset.Set]bool)
	var maximal settrie.MaximalFamily
	for c, col := range cols {
		groups := make([][]int32, rel.Cardinality(c))
		for row, code := range col {
			groups[code] = append(groups[code], int32(row))
		}
		for _, g := range groups {
			for i, a := range g {
			pairs:
				for _, b := range g[i+1:] {
					for _, lower := range cols[:c] {
						if lower[a] == lower[b] {
							continue pairs // counted in that column's groups
						}
					}
					s := bitset.Single(c)
					for d := c + 1; d < n; d++ {
						if cols[d][a] == cols[d][b] {
							s = s.With(d)
						}
					}
					if !seen[s] {
						seen[s] = true
						maximal.Add(s)
					}
				}
			}
		}
	}
	out := maximal.All()
	bitset.Sort(out)
	return out
}

// AgreeSetUCCs discovers the minimal UCCs row-based, as Gordian does (paper
// Sec. 7): they are the minimal hitting sets of the complements of the
// maximal agree sets (the agree-set/hitting-set duality), computed without a
// single lattice-node uniqueness check. Its cost grows with the number of
// agreeing row pairs, not with the lattice, so it reaches relations too
// wide for UCCs. The result is sorted by bitset.Sort.
func AgreeSetUCCs(rel *relation.Relation) []bitset.Set {
	all := rel.AllColumns()
	maximal := AgreeSets(rel)
	var out []bitset.Set
	if len(maximal) == 0 {
		// No two rows agree anywhere: every single column is unique.
		all.ForEach(func(c int) { out = append(out, bitset.Single(c)) })
		return out
	}
	complements := make([]bitset.Set, len(maximal))
	for i, m := range maximal {
		complements[i] = all.Diff(m)
	}
	// Without a deadline the enumeration cannot fail.
	hits, _ := walker.MinimalHittingSets(context.Background(), complements, all)
	for _, u := range hits {
		if !u.IsEmpty() {
			out = append(out, u)
		}
	}
	bitset.Sort(out)
	return out
}

// sortFDs orders FDs by (LHS, RHS), the order of fd.Sort.
func sortFDs(fds []FD) {
	slices.SortFunc(fds, func(x, y FD) int {
		if c := bitset.Compare(x.LHS, y.LHS); c != 0 {
			return c
		}
		return cmp.Compare(x.RHS, y.RHS)
	})
}
