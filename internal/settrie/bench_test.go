package settrie

import (
	"math/rand"
	"testing"

	"holistic/internal/bitset"
)

func benchSets(n, cols int, seed int64) []bitset.Set {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]bitset.Set, n)
	for i := range out {
		var s bitset.Set
		for c := 0; c < cols; c++ {
			if rnd.Intn(4) == 0 {
				s = s.With(c)
			}
		}
		if s.IsEmpty() {
			s = s.With(rnd.Intn(cols))
		}
		out[i] = s
	}
	return out
}

// benchIndex returns an index of the distinct sets among in.
func benchIndex(in []bitset.Set) *Index {
	var ix Index
	seen := make(map[bitset.Set]bool)
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			ix.Add(s)
		}
	}
	return &ix
}

var boolSink bool

// BenchmarkSubsetLookup measures the Sec. 5.4 subset query of upward
// pruning that the lattice walks perform per candidate.
func BenchmarkSubsetLookup(b *testing.B) {
	ix := benchIndex(benchSets(2000, 20, 1))
	queries := benchSets(64, 20, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boolSink = ix.hasSubsetOf(queries[i%len(queries)])
	}
}

// BenchmarkSupersetLookup measures the superset query of downward pruning
// (Lemma 4).
func BenchmarkSupersetLookup(b *testing.B) {
	ix := benchIndex(benchSets(2000, 20, 1))
	queries := benchSets(64, 20, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boolSink = ix.hasSupersetOf(queries[i%len(queries)])
	}
}

// BenchmarkMinimalFamilyAdd measures antichain maintenance, the store
// operation behind every certificate insertion.
func BenchmarkMinimalFamilyAdd(b *testing.B) {
	sets := benchSets(4096, 24, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var f MinimalFamily
		for _, s := range sets {
			f.Add(s)
		}
	}
}

// hepatitisSets draws n sets of 8 to 13 of 20 columns, the shape of the
// per-RHS FD families of MUDS on hepatitis (20 columns, 1,350 to 1,920
// maximal non-FDs and 770 to 1,320 minimal left-hand sides per RHS).
func hepatitisSets(n int, seed int64) []bitset.Set {
	r := rand.New(rand.NewSource(seed))
	out := make([]bitset.Set, n)
	for i := range out {
		for size := 8 + r.Intn(6); out[i].Len() < size; {
			out[i] = out[i].With(r.Intn(20))
		}
	}
	return out
}

// hepatitisQueries draws left-hand sides to look up: subsets of stored sets
// (superset hits) and random sets of 3 to 12 columns (subset hits grow with
// size).
func hepatitisQueries(stored []bitset.Set, seed int64) []bitset.Set {
	r := rand.New(rand.NewSource(seed))
	out := make([]bitset.Set, 64)
	for i := range out {
		if i%2 == 0 {
			from := stored[r.Intn(len(stored))]
			for c := from.First(); c >= 0; c = from.NextAfter(c) {
				if r.Intn(3) > 0 {
					out[i] = out[i].With(c)
				}
			}
			continue
		}
		for size := 3 + r.Intn(10); out[i].Len() < size; {
			out[i] = out[i].With(r.Intn(20))
		}
	}
	return out
}

// BenchmarkHepatitisShape measures the three family operations that lead
// MUDS' CPU profile on hepatitis, on a family of 1,500 sets of 8 to 13 of 20
// columns: the superset-exists query of a walk's false certificates, the
// subset-exists query of its true ones, and MaximalFamily.Add (one op
// builds the family).
func BenchmarkHepatitisShape(b *testing.B) {
	stored := hepatitisSets(1500, 1)
	ix := benchIndex(stored)
	queries := hepatitisQueries(stored, 2)
	b.Run("superset-exists", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			boolSink = ix.hasSupersetOf(queries[i%len(queries)])
		}
	})
	b.Run("subset-exists", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			boolSink = ix.hasSubsetOf(queries[i%len(queries)])
		}
	})
	b.Run("maximal-add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var f MaximalFamily
			for _, s := range stored {
				f.Add(s)
			}
		}
	})
}
