package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/dataset"
	"holistic/internal/pli"
	"holistic/internal/relation"
	"holistic/internal/walker"
)

// ValidateMeasurement is one (operation, dataset) data point of the
// validation fast-path benchmark, serialised into BENCH_validate.json. Each
// row pits the non-materializing check path (early-exit fold kernels behind
// Provider.IsUnique / CheckFD / CheckFDs) against the materializing
// reference (Provider.Get + IsUnique / DistinctCount comparison) on the
// same workload, and carries the fast path's cache-admission counters so
// the file documents not just the speedup but why: checks answered without
// building a PLI versus intersections actually admitted.
type ValidateMeasurement struct {
	Op      string `json:"op"`
	Dataset string `json:"dataset"`
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`

	FastNsPerOp     float64 `json:"fast_ns_per_op"`
	FastBytesPerOp  int64   `json:"fast_bytes_per_op"`
	FastAllocsPerOp int64   `json:"fast_allocs_per_op"`

	MatNsPerOp     float64 `json:"materialize_ns_per_op,omitempty"`
	MatBytesPerOp  int64   `json:"materialize_bytes_per_op,omitempty"`
	MatAllocsPerOp int64   `json:"materialize_allocs_per_op,omitempty"`

	Speedup float64 `json:"speedup,omitempty"`

	// Cache-admission counters of one fast run of the workload on a fresh
	// provider. HitRate = FastChecks / (FastChecks + Materializations).
	FastChecks       int64   `json:"fast_checks,omitempty"`
	Materializations int64   `json:"materializations,omitempty"`
	HitRate          float64 `json:"fast_check_hit_rate,omitempty"`
}

// validateReport is the top-level BENCH_validate.json document.
type validateReport struct {
	Note         string                `json:"note"`
	Measurements []ValidateMeasurement `json:"measurements"`
}

// abaloneShaped generates the abalone-shaped relation at the requested row
// count: the UCI abalone column layout (one low-cardinality categorical,
// seven near-continuous measurements, a small label) with the measurement
// cardinalities scaled proportionally so the per-column distinctness ratio
// of the 4177-row original is preserved at benchmark scale.
func abaloneShaped(rows int) *relation.Relation {
	scale := float64(rows) / 4177
	sc := func(card int) int {
		if scale <= 1 {
			return card
		}
		return int(float64(card) * scale)
	}
	return dataset.Generate(dataset.Spec{
		Name: fmt.Sprintf("abalone-%d", rows),
		Rows: rows,
		Seed: 104,
		Columns: []dataset.ColumnSpec{
			{Name: "sex", Kind: dataset.Zipf, Card: 3},
			{Name: "length", Kind: dataset.Random, Card: sc(134)},
			{Name: "diameter", Kind: dataset.Random, Card: sc(111)},
			{Name: "height", Kind: dataset.Random, Card: sc(51)},
			{Name: "whole_w", Kind: dataset.Random, Card: sc(2429)},
			{Name: "shucked_w", Kind: dataset.Random, Card: sc(1515)},
			{Name: "viscera_w", Kind: dataset.Random, Card: sc(880)},
			{Name: "shell_w", Kind: dataset.Random, Card: sc(926)},
			{Name: "rings", Kind: dataset.Random, Card: 28},
		},
	})
}

// duccWalk runs the DUCC-style random walk over the full column lattice
// with the given uniqueness predicate and returns the number of minimal
// unique column combinations found.
func duccWalk(rel *relation.Relation, seed int64, pred walker.Predicate) int {
	cols := make([]int, rel.NumColumns())
	for i := range cols {
		cols[i] = i
	}
	res := walker.Run(bitset.New(cols...), pred, walker.Options{Seed: seed})
	return len(res.MinimalTrue)
}

// taneCols caps the TANE verdict sweep's column count: 45 LHS pairs with up
// to 8 RHS candidates each is a realistic per-level batch.
const taneCols = 10

// taneSweepFast answers every level-2 FD candidate (pair LHS, every RHS)
// through the batched non-materializing path and returns the valid count.
func taneSweepFast(p *pli.Provider, cols int) int {
	colSet := make([]int, cols)
	for i := range colSet {
		colSet[i] = i
	}
	rhs := bitset.New(colSet...)
	found := 0
	for i := 0; i < cols; i++ {
		for j := i + 1; j < cols; j++ {
			found += p.CheckFDs(bitset.New(i, j), rhs).Len()
		}
	}
	return found
}

// taneSweepMat answers the same candidates the way the pre-fast-path TANE
// did: materialize π_lhs and π_lhs∪{a} and compare cluster counts (Lemma 1
// via |π_X| = |π_X∪{A}|).
func taneSweepMat(p *pli.Provider, cols int) int {
	found := 0
	for i := 0; i < cols; i++ {
		for j := i + 1; j < cols; j++ {
			lhs := bitset.New(i, j)
			lp := p.Get(lhs)
			for a := 0; a < cols; a++ {
				if lhs.Has(a) {
					found++ // trivial FD, counted valid by CheckFDs too
					continue
				}
				if lp.NumClusters() == p.Get(lhs.With(a)).NumClusters() {
					found++
				}
			}
		}
	}
	return found
}

// engineProvider builds a provider the way a sequential engine run does
// (core.Options.NewProvider): a one-shard cache under the production byte
// budget.
// Benchmarking against an unbudgeted cache would hide exactly the flooding
// behaviour the admission control exists to prevent.
func engineProvider(rel *relation.Relation) *pli.Provider {
	return pli.NewProvider(rel, pli.NewCache(1, 0, pli.DefaultCacheBytes))
}

// ValidateBench benchmarks the validation fast path against the
// materializing reference on validation-dominated workloads — the DUCC
// uniqueness walk and a TANE per-level verdict sweep — over abalone- and
// ncvoter-shaped generators at the requested row count, plus the raw check
// kernel against the IntersectColumn chain it replaces. It prints a table
// and writes the measurements to jsonPath (empty path = no file). It is the
// `cmd/experiments -validate` entry point that regenerates
// BENCH_validate.json.
//
// Every timed iteration runs on a fresh provider, so the numbers include
// the first-visit planning and admission cost rather than a warmed cache.
func ValidateBench(w io.Writer, jsonPath string, rows int, seed int64) ([]ValidateMeasurement, error) {
	fmt.Fprintf(w, "Validation fast path — non-materializing checks vs Get-based validation (%d-row generators, fresh provider per run)\n", rows)
	fmt.Fprintf(w, "%-18s %-14s %12s %10s %12s %10s %8s %8s\n",
		"op", "dataset", "fast ns/op", "allocs", "mat ns/op", "allocs", "speedup", "hitrate")

	rels := []*relation.Relation{
		abaloneShaped(rows),
		dataset.NCVoter(rows, 12),
	}

	var out []ValidateMeasurement
	for _, rel := range rels {
		rel := rel
		cols := rel.NumColumns()
		if cols > taneCols {
			cols = taneCols
		}

		// Agreement guard: the fast and materializing paths must produce
		// identical verdicts before their timings mean anything.
		fastP := engineProvider(rel)
		matP := engineProvider(rel)
		wantUCCs := duccWalk(rel, seed, fastP.IsUnique)
		if got := duccWalk(rel, seed, func(s bitset.Set) bool { return matP.Get(s).IsUnique() }); got != wantUCCs {
			return out, fmt.Errorf("%s: fast walk found %d minimal UCCs, materializing walk %d", rel.Name(), wantUCCs, got)
		}
		wantFDs := taneSweepFast(engineProvider(rel), cols)
		if got := taneSweepMat(engineProvider(rel), cols); got != wantFDs {
			return out, fmt.Errorf("%s: fast sweep found %d valid FDs, materializing sweep %d", rel.Name(), wantFDs, got)
		}

		type variantPair struct {
			op       string
			fast     func(b *testing.B)
			mat      func(b *testing.B)
			fastOnce func() pli.CacheStats
		}
		pairs := []variantPair{
			{
				op: "ducc_walk",
				fast: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						p := engineProvider(rel)
						if duccWalk(rel, seed, p.IsUnique) != wantUCCs {
							b.Fatal("bad result")
						}
					}
				},
				mat: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						p := engineProvider(rel)
						pred := func(s bitset.Set) bool { return p.Get(s).IsUnique() }
						if duccWalk(rel, seed, pred) != wantUCCs {
							b.Fatal("bad result")
						}
					}
				},
				fastOnce: func() pli.CacheStats {
					p := engineProvider(rel)
					duccWalk(rel, seed, p.IsUnique)
					return p.CacheStats()
				},
			},
			{
				// The holistic engine's actual validation workload (paper
				// Sec. 3): ONE provider is handed from the UCC phase to the
				// FD phase, so the walk's admissions become the sweep's
				// ancestors. This is the validation-dominated run the fast
				// path is built for.
				op: "holistic_phases",
				fast: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						p := engineProvider(rel)
						if duccWalk(rel, seed, p.IsUnique) != wantUCCs {
							b.Fatal("bad result")
						}
						if taneSweepFast(p, cols) != wantFDs {
							b.Fatal("bad result")
						}
					}
				},
				mat: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						p := engineProvider(rel)
						pred := func(s bitset.Set) bool { return p.Get(s).IsUnique() }
						if duccWalk(rel, seed, pred) != wantUCCs {
							b.Fatal("bad result")
						}
						if taneSweepMat(p, cols) != wantFDs {
							b.Fatal("bad result")
						}
					}
				},
				fastOnce: func() pli.CacheStats {
					p := engineProvider(rel)
					duccWalk(rel, seed, p.IsUnique)
					taneSweepFast(p, cols)
					return p.CacheStats()
				},
			},
			{
				op: "tane_verdicts",
				fast: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if taneSweepFast(engineProvider(rel), cols) != wantFDs {
							b.Fatal("bad result")
						}
					}
				},
				mat: func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if taneSweepMat(engineProvider(rel), cols) != wantFDs {
							b.Fatal("bad result")
						}
					}
				},
				fastOnce: func() pli.CacheStats {
					p := engineProvider(rel)
					taneSweepFast(p, cols)
					return p.CacheStats()
				},
			},
		}

		// The raw kernel against the chain it replaces: refute/confirm one
		// FD under a two-column fold with no output PLI. Steady state on a
		// caller-owned scratch must be zero allocs/op.
		base := pli.FromColumn(rel.Column(0), rel.Cardinality(0))
		keys := [][]int32{rel.Column(1), rel.Column(2)}
		cards := []int{rel.Cardinality(1), rel.Cardinality(2)}
		rhs := rel.Column(3)
		sc := pli.NewScratch()
		pairs = append(pairs, variantPair{
			op: "check_refines_kernel",
			fast: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					base.CheckRefines(rhs, keys, cards, sc)
				}
			},
			mat: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					base.IntersectColumn(keys[0], cards[0]).
						IntersectColumn(keys[1], cards[1]).Refines(rhs)
				}
			},
		})

		for _, pair := range pairs {
			fr := testing.Benchmark(pair.fast)
			m := ValidateMeasurement{
				Op:              pair.op,
				Dataset:         rel.Name(),
				Rows:            rel.NumRows(),
				Cols:            rel.NumColumns(),
				FastNsPerOp:     float64(fr.NsPerOp()),
				FastBytesPerOp:  fr.AllocedBytesPerOp(),
				FastAllocsPerOp: fr.AllocsPerOp(),
			}
			mr := testing.Benchmark(pair.mat)
			m.MatNsPerOp = float64(mr.NsPerOp())
			m.MatBytesPerOp = mr.AllocedBytesPerOp()
			m.MatAllocsPerOp = mr.AllocsPerOp()
			if m.MatNsPerOp > 0 && m.FastNsPerOp > 0 {
				m.Speedup = m.MatNsPerOp / m.FastNsPerOp
			}
			if pair.fastOnce != nil {
				st := pair.fastOnce()
				m.FastChecks = st.FastChecks
				m.Materializations = st.Materializations
				if total := st.FastChecks + st.Materializations; total > 0 {
					m.HitRate = float64(st.FastChecks) / float64(total)
				}
			}
			out = append(out, m)
			fmt.Fprintf(w, "%-18s %-14s %12.0f %10d %12.0f %10d %7.1fx %8.2f\n",
				m.Op, m.Dataset, m.FastNsPerOp, m.FastAllocsPerOp,
				m.MatNsPerOp, m.MatAllocsPerOp, m.Speedup, m.HitRate)
		}
	}

	if jsonPath != "" {
		doc := validateReport{
			Note: "validation fast path (early-exit check kernels, cache-admission control) vs the " +
				"materializing Get-based validation on the same workloads; fresh provider per timed " +
				"run, so numbers include first-visit planning and admission. holistic_phases is the engine-faithful " +
				"validation-dominated run: one provider carried from the DUCC random walk into the " +
				"TANE per-level FD sweep, so walk-time admissions serve as sweep-time ancestors. " +
				"hit rate = fast_checks / (fast_checks + materializations).",
			Measurements: out,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return out, err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return out, fmt.Errorf("writing %s: %w", jsonPath, err)
		}
		fmt.Fprintf(w, "wrote %s\n", jsonPath)
	}
	return out, nil
}
