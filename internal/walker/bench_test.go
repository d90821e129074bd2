package walker

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"holistic/internal/bitset"
)

// BenchmarkWalk measures the randomized lattice learning of a monotone
// predicate with a mid-lattice boundary, the workload of DUCC and MUDS'
// sub-lattice phases.
func BenchmarkWalk(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	var gens []bitset.Set
	for i := 0; i < 12; i++ {
		var g bitset.Set
		for c := 0; c < 14; c++ {
			if rnd.Intn(4) == 0 {
				g = g.With(c)
			}
		}
		if g.IsEmpty() {
			g = g.With(rnd.Intn(14))
		}
		gens = append(gens, g)
	}
	pred := func(s bitset.Set) bool {
		for _, g := range gens {
			if g.IsSubsetOf(s) {
				return true
			}
		}
		return false
	}
	base := bitset.Full(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(base, pred, Options{Seed: int64(i)})
		if len(res.MinimalTrue) == 0 {
			b.Fatal("no minimal true sets")
		}
	}
}

// BenchmarkMinimalHittingSets measures the duality computation behind hole
// detection on 200 random edges over 16 columns.
func BenchmarkMinimalHittingSets(b *testing.B) {
	rnd := rand.New(rand.NewSource(2))
	var fams []bitset.Set
	for i := 0; i < 200; i++ {
		var f bitset.Set
		for c := 0; c < 16; c++ {
			if rnd.Intn(3) == 0 {
				f = f.With(c)
			}
		}
		if f.IsEmpty() {
			f = f.With(rnd.Intn(16))
		}
		fams = append(fams, f)
	}
	base := bitset.Full(16)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hs, _ := MinimalHittingSets(ctx, fams, base); len(hs) == 0 {
			b.Fatal("no hitting sets")
		}
	}
}

// BenchmarkMinimalHittingSetsSweep measures hole filling on input shaped like
// a completion-sweep walk: the complements of the maximal non-FD left-hand
// sides of one right-hand side, 50 to 200 sets over 16 or 17 columns. The
// left-hand sides are random; the complements of the maximal non-FDs are then
// exactly their minimal hitting sets, and hole filling maps the complements
// back to the minimal left-hand sides, which the benchmark checks.
func BenchmarkMinimalHittingSetsSweep(b *testing.B) {
	for _, tc := range []struct{ cols, lhss, size int }{
		{16, 9, 3}, {16, 11, 4}, {17, 10, 3}, {17, 13, 4},
	} {
		base := bitset.Full(tc.cols)
		rnd := rand.New(rand.NewSource(int64(tc.cols*100 + tc.lhss)))
		var lhss []bitset.Set
		for len(lhss) < tc.lhss {
			var s bitset.Set
			for s.Len() < tc.size {
				s = s.With(rnd.Intn(tc.cols))
			}
			lhss = append(lhss, s)
		}
		ctx := context.Background()
		complements, _ := MinimalHittingSets(ctx, lhss, base)
		want, _ := MinimalHittingSets(ctx, complements, base)
		b.Run(fmt.Sprintf("cols=%d/complements=%d", tc.cols, len(complements)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if hs, _ := MinimalHittingSets(ctx, complements, base); len(hs) != len(want) {
					b.Fatalf("%d hitting sets, want %d", len(hs), len(want))
				}
			}
		})
	}
}
