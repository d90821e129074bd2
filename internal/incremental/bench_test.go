package incremental

import (
	"context"
	"testing"

	"holistic/internal/core"
	"holistic/internal/dataset"
	"holistic/internal/relation"
)

// BenchmarkAppendBatch times one warm AppendBatch of a batch of 0.5% of the
// rows against a from-scratch MUDS profile of the same rows, on the
// 100,000-row uniprot and ncvoter generators. Each append iteration starts
// from a freshly profiled session of the base rows, built untimed; the
// from-scratch relation is profiled once untimed first, so lazily built
// relation state is paid on neither side. Both report their checks per
// operation as "checks". README's incremental table comes from
//
//	go test -run '^$' -bench AppendBatch -count 3 ./internal/incremental
func BenchmarkAppendBatch(b *testing.B) {
	ctx := context.Background()
	opts := core.Options{Seed: 1}
	for _, full := range []*relation.Relation{dataset.Uniprot(100000), dataset.NCVoter(100000, 12)} {
		all := relationRows(full)
		cols, base := full.NumColumns(), len(all)-len(all)/200
		b.Run(full.Name()+"/append", func(b *testing.B) {
			checks := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p, _, err := NewProfiler(ctx, mustRelation(b, all[:base], cols, relation.Options{}), core.StrategyMuds, opts, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := p.AppendBatch(ctx, all[base:], nil)
				if err != nil {
					b.Fatal(err)
				}
				checks = res.Checks
			}
			b.ReportMetric(float64(checks), "checks")
		})
		b.Run(full.Name()+"/scratch", func(b *testing.B) {
			rel := mustRelation(b, all, cols, relation.Options{})
			res, err := core.RunRelationContext(ctx, core.StrategyMuds, rel, opts, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err = core.RunRelationContext(ctx, core.StrategyMuds, rel, opts, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Checks), "checks")
		})
	}
}
