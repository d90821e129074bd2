package core

import (
	"math/rand"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/fd"
	"holistic/internal/settrie"
)

// randomUCCs draws count sets of lo to hi columns over [0, n) and returns
// their minimal ones, the shape of a minimal-UCC family.
func randomUCCs(r *rand.Rand, n, count, lo, hi int) []bitset.Set {
	var f settrie.MinimalFamily
	for ; count > 0; count-- {
		var s bitset.Set
		for size := lo + r.Intn(hi-lo+1); s.Len() < size; {
			s = s.With(r.Intn(n))
		}
		f.Add(s)
	}
	return f.All()
}

// TestUCCIndexMatchesBruteForce compares the union look-ups of the UCC
// family (Z, and the connector look-up that pruning rule 1 shares) with a
// linear scan on random UCC families over 70 columns (crossing a word
// boundary of the column sets) with up to 200 UCCs (several words of slot
// bitmaps).
func TestUCCIndexMatchesBruteForce(t *testing.T) {
	const n = 70
	r := rand.New(rand.NewSource(1))
	hits, total := 0, 0
	for iter := 0; iter < 400; iter++ {
		uccs := randomUCCs(r, n, r.Intn(201), 1, 6)
		m := newMudsFD(nil, bitset.Full(n), uccs, fd.NewStore(), 0)
		var z bitset.Set
		for _, u := range uccs {
			z = z.Union(u)
		}
		if m.z != z {
			t.Fatalf("Z = %v, want %v over %v", m.z, z, uccs)
		}
		for q := 0; q < 50; q++ {
			// A subset of a UCC (a hit), a UCC plus a column, a random set,
			// or the empty set.
			var x bitset.Set
			switch k := r.Intn(4); {
			case k < 2 && len(uccs) > 0:
				u := uccs[r.Intn(len(uccs))]
				u.ForEach(func(c int) {
					if r.Intn(2) == 0 {
						x = x.With(c)
					}
				})
				if k == 1 {
					x = x.With(r.Intn(n))
				}
			case k == 2:
				for i := r.Intn(4); i > 0; i-- {
					x = x.With(r.Intn(n))
				}
			}
			var want bitset.Set
			for _, u := range uccs {
				if x.IsSubsetOf(u) {
					want = want.Union(u)
				}
			}
			total++
			if !want.IsEmpty() {
				hits++
			}
			if got := m.connectorLookup(x); got != want.Diff(x) {
				t.Fatalf("connectorLookup(%v) = %v, want %v over %v", x, got, want.Diff(x), uccs)
			}
		}
	}
	if hits < total/5 || hits > total*4/5 {
		t.Fatalf("unbalanced queries: %d of %d hit a UCC", hits, total)
	}
}

// unionSink keeps the benchmarked look-up from being optimised away.
var unionSink bitset.Set

// BenchmarkConnectorLookup measures the connector look-up of paper Sec. 5.1
// as minimizeFDs issues it: the union of the minimal UCCs containing a
// connector, over a family of about 200 minimal UCCs of 20 columns.
func BenchmarkConnectorLookup(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	uccs := randomUCCs(r, 20, 200, 4, 5)
	m := newMudsFD(nil, bitset.Full(20), uccs, fd.NewStore(), 0)
	queries := make([]bitset.Set, 64)
	for i := range queries {
		u := uccs[r.Intn(len(uccs))]
		queries[i] = u.Without(u.First())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unionSink = m.connectorLookup(queries[i%len(queries)])
	}
	b.ReportMetric(float64(len(uccs)), "uccs")
}
