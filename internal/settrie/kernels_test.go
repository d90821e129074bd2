package settrie

import (
	"math/rand"
	"testing"

	"holistic/internal/bitset"
)

// This file checks the non-allocating trie queries against linear scans of
// MinimalFamily.All(). Sets are drawn over 70 columns so that they cross the
// 64-bit word boundary.

// pickColumns returns a set of between lo and hi columns drawn from
// [0, n); repeated draws may make it smaller.
func pickColumns(r *rand.Rand, n, lo, hi int) bitset.Set {
	var s bitset.Set
	for i := lo + r.Intn(hi-lo+1); i > 0; i-- {
		s = s.With(r.Intn(n))
	}
	return s
}

// query draws a look-up set related to the stored sets: a random dense set,
// a subset of a stored set, a stored set with extra columns, or the empty
// set, so that both hits and misses are common.
func query(r *rand.Rand, stored []bitset.Set, n int) bitset.Set {
	var from bitset.Set
	if len(stored) > 0 {
		from = stored[r.Intn(len(stored))]
	}
	switch r.Intn(4) {
	case 0:
		return pickColumns(r, n, 0, 40)
	case 1:
		return from.Intersect(pickColumns(r, n, 0, 40))
	case 2:
		return from.Union(pickColumns(r, n, 0, 6))
	default:
		return bitset.Set{}
	}
}

func TestFamilyQueriesMatchLinearScan(t *testing.T) {
	const n = 70
	r := rand.New(rand.NewSource(1))
	subHits, total := 0, 0
	for iter := 0; iter < 500; iter++ {
		var f MinimalFamily
		for i := r.Intn(60); i > 0; i-- {
			f.Add(pickColumns(r, n, 1, 6))
		}
		stored := f.All()
		for q := 0; q < 40; q++ {
			x := query(r, stored, n)
			wantSub := false
			for _, s := range stored {
				wantSub = wantSub || s.IsSubsetOf(x)
			}
			total++
			if wantSub {
				subHits++
			}
			if got := f.CoversSubsetOf(x); got != wantSub {
				t.Fatalf("CoversSubsetOf(%v) = %v, want %v over %v", x, got, wantSub, stored)
			}
		}
	}
	// Both answers must be exercised, or the comparison says little.
	if subHits < total/10 || subHits > total*9/10 {
		t.Fatalf("unbalanced queries: %d subset hits of %d", subHits, total)
	}
}
