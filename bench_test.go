package holistic

// One benchmark per table/figure of the paper's evaluation (Sec. 6), sized
// so the full -bench=. run finishes in minutes. cmd/experiments regenerates
// the complete series (and, with -full, the paper-scale parameters);
// EXPERIMENTS.md records the measured shapes against the paper's.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"holistic/internal/core"
	"holistic/internal/dataset"
	"holistic/internal/pli"
	"holistic/internal/relation"
)

// cacheMetrics observes the engine's cache-statistics events and accumulates
// them across iterations, so the benchmarks can report shared-PLI-cache
// effectiveness (hits/misses/intersections) alongside ns/op.
type cacheMetrics struct {
	core.NopObserver
	hits, misses, intersections int64
}

func (m *cacheMetrics) CacheStats(s pli.CacheStats) {
	m.hits += s.Hits
	m.misses += s.Misses
	m.intersections += s.Intersections
}

func (m *cacheMetrics) report(b *testing.B) {
	n := float64(b.N)
	b.ReportMetric(float64(m.hits)/n, "pli-hits/op")
	b.ReportMetric(float64(m.misses)/n, "pli-misses/op")
	b.ReportMetric(float64(m.intersections)/n, "pli-intersects/op")
}

func benchStrategies(b *testing.B, rel *relation.Relation, strategies ...string) {
	b.Helper()
	src := core.RelationSource{Rel: rel}
	for _, strategy := range strategies {
		b.Run(strategy, func(b *testing.B) {
			var metrics cacheMetrics
			for i := 0; i < b.N; i++ {
				res, err := core.RunContext(context.Background(), strategy, src,
					core.Options{Seed: int64(i)}, &metrics)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.FDs) == 0 {
					b.Fatal("no FDs found")
				}
			}
			metrics.report(b)
		})
	}
}

// BenchmarkFigure6RowScalability is one point of the Figure 6 series: the
// uniprot-like dataset at 10 columns. Paper shape: all three algorithms are
// linear in rows; HFUN fastest, MUDS slowest (the paper blames its
// shadowed-FD phases).
func BenchmarkFigure6RowScalability(b *testing.B) {
	rel := dataset.Uniprot(20000)
	benchStrategies(b, rel, core.StrategyBaseline, core.StrategyHolisticFun, core.StrategyMuds)
}

// BenchmarkFigure7ColumnScalability is one point of the Figure 7 series:
// the ionosphere-like dataset at 351 rows. Paper shape: exponential in
// columns; MUDS scales best, HFUN barely beats the baseline.
func BenchmarkFigure7ColumnScalability(b *testing.B) {
	rel := dataset.Ionosphere(12, 351)
	benchStrategies(b, rel, core.StrategyMuds, core.StrategyHolisticFun, core.StrategyBaseline)
}

// BenchmarkTable3 covers the quick UCI-like datasets of Table 3 across all
// four strategies (adult/letter/hepatitis and the crossed 10k-row datasets
// run via cmd/experiments -table3; they take minutes per run, as in the
// paper).
func BenchmarkTable3(b *testing.B) {
	for _, name := range []string{"iris", "balance", "abalone", "b-cancer", "bridges", "echocard"} {
		rel, err := dataset.UCI(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			benchStrategies(b, rel,
				core.StrategyBaseline, core.StrategyHolisticFun, core.StrategyMuds, core.StrategyTane)
		})
	}
}

// BenchmarkFigure8Phases measures MUDS' phase breakdown on the ncvoter-like
// dataset. Paper shape: SPIDER and DUCC negligible, the FD phases dominate;
// here the completion sweep, which replaces the paper's shadowed-FD phases,
// holds nearly all FD time. Per-phase seconds are reported as benchmark
// metrics.
func BenchmarkFigure8Phases(b *testing.B) {
	rel := dataset.NCVoter(1000, 14)
	totals := map[string]float64{}
	var order []string
	for i := 0; i < b.N; i++ {
		res := core.Muds(rel, core.Options{Seed: int64(i)})
		if len(res.FDs) == 0 {
			b.Fatal("no FDs found")
		}
		for _, p := range res.Phases {
			if _, ok := totals[p.Name]; !ok {
				order = append(order, p.Name)
			}
			totals[p.Name] += p.Duration.Seconds()
		}
	}
	for _, name := range order {
		b.ReportMetric(totals[name]/float64(b.N), name+"-s/op")
	}
}

// BenchmarkParallelScaling measures the worker-pool speedup of the parallel
// phases: MUDS on the ncvoter-like dataset at workers=1 versus all CPUs.
// That every worker count finds the same dependencies is
// TestWorkerCountEquivalence's job (internal/core).
func BenchmarkParallelScaling(b *testing.B) {
	rel := dataset.NCVoter(2000, 16)
	src := core.RelationSource{Rel: rel}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("muds/workers=%d", workers), func(b *testing.B) {
			var metrics cacheMetrics
			for i := 0; i < b.N; i++ {
				res, err := core.RunContext(context.Background(), core.StrategyMuds, src,
					core.Options{Seed: int64(i), Workers: workers}, &metrics)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.FDs) == 0 {
					b.Fatal("no FDs found")
				}
			}
			metrics.report(b)
		})
	}
}

// BenchmarkProfileAPI measures the public entry point end to end on a small
// mixed dataset (the shape a library user profiles interactively).
func BenchmarkProfileAPI(b *testing.B) {
	rel := dataset.NCVoter(1000, 12)
	for i := 0; i < b.N; i++ {
		res := ProfileRelation(rel, Options{Seed: int64(i)})
		if len(res.FDs) == 0 {
			b.Fatal("no FDs found")
		}
	}
}
