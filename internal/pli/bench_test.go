package pli

import (
	"fmt"
	"math/rand"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/relation"
)

func benchRelation(rows, cols, card int) *relation.Relation {
	rnd := rand.New(rand.NewSource(1))
	names := make([]string, cols)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, cols)
		for c := range row {
			row[c] = fmt.Sprint(rnd.Intn(card))
		}
		data[i] = row
	}
	return relation.MustNew("bench", names, data)
}

// benchSizes are the row counts of the fold micro-benchmarks.
var benchSizes = []int{10000, 100000}

// BenchmarkIntersectColumn measures the single-column fold that builds every
// multi-column PLI (Provider.Extend runs the same kernel). Grouping runs on
// pooled scratch arenas, so the only allocations are the result PLI's own
// arrays: ReportAllocs makes a map-grouping regression show up as an
// allocs/op explosion.
func BenchmarkIntersectColumn(b *testing.B) {
	for _, rows := range benchSizes {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			rel := benchRelation(rows, 3, 100)
			a := FromColumn(rel.Column(0), rel.Cardinality(0))
			col, card := rel.Column(1), rel.Cardinality(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a.IntersectColumn(col, card).NumRows() != rel.NumRows() {
					b.Fatal("bad result")
				}
			}
		})
	}
}

// BenchmarkFromColumn measures the flat single-column PLI build.
func BenchmarkFromColumn(b *testing.B) {
	for _, rows := range benchSizes {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			rel := benchRelation(rows, 3, 100)
			col, card := rel.Column(0), rel.Cardinality(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FromColumn(col, card)
			}
		})
	}
}

// BenchmarkRefines measures the partition-refinement FD check (Lemma 1).
func BenchmarkRefines(b *testing.B) {
	rel := benchRelation(50000, 3, 100)
	a := FromColumn(rel.Column(0), rel.Cardinality(0))
	col := rel.Column(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Refines(col)
	}
}

// BenchmarkCheckRefines measures the early-exit FD kernel against the
// materializing IntersectColumn + Refines path it replaces.
func BenchmarkCheckRefines(b *testing.B) {
	for _, rows := range benchSizes {
		rel := benchRelation(rows, 4, 100)
		base := FromColumn(rel.Column(0), rel.Cardinality(0))
		keys := [][]int32{rel.Column(1)}
		cards := []int{rel.Cardinality(1)}
		rhs := rel.Column(2)
		sc := NewScratch()
		b.Run(fmt.Sprintf("kernel/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base.CheckRefines(rhs, keys, cards, sc)
			}
		})
		b.Run(fmt.Sprintf("materialize/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base.IntersectColumn(keys[0], cards[0]).Refines(rhs)
			}
		})
	}
}

// BenchmarkCheckRefinesMany measures the batched RHS sweep: one fold
// answering every candidate at once vs materializing the lhs PLI and
// sweeping its clusters without fold keys.
func BenchmarkCheckRefinesMany(b *testing.B) {
	rel := benchRelation(50000, 6, 100)
	base := FromColumn(rel.Column(0), rel.Cardinality(0))
	keys := [][]int32{rel.Column(1)}
	cards := []int{rel.Cardinality(1)}
	cands := [][]int32{rel.Column(2), rel.Column(3), rel.Column(4), rel.Column(5)}
	ok := make([]bool, len(cands))
	sc := NewScratch()
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			base.CheckRefinesMany(cands, keys, cards, ok, sc)
		}
	})
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			base.IntersectColumn(keys[0], cards[0]).CheckRefinesMany(cands, nil, nil, ok, sc)
		}
	})
}

// BenchmarkProviderIsUnique measures the full provider fast path (plan +
// kernel) on uncached sets, the per-probe cost of a DUCC walk step.
func BenchmarkProviderIsUnique(b *testing.B) {
	rel := benchRelation(20000, 6, 50)
	p := NewProvider(rel, nil)
	sets := []bitset.Set{
		bitset.New(0, 1), bitset.New(1, 2, 3), bitset.New(0, 2, 4), bitset.New(3, 4, 5),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.IsUnique(sets[i%len(sets)])
	}
}

// BenchmarkProviderGet measures cached multi-column PLI retrieval.
func BenchmarkProviderGet(b *testing.B) {
	rel := benchRelation(20000, 6, 50)
	p := NewProvider(rel, nil)
	sets := []bitset.Set{
		bitset.New(0, 1), bitset.New(1, 2, 3), bitset.New(0, 2, 4), bitset.New(3, 4, 5),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Get(sets[i%len(sets)])
	}
}
