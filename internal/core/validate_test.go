package core

import (
	"context"
	"reflect"
	"testing"

	"holistic/internal/dataset"
	"holistic/internal/relation"
)

// TestFastPathConfigEquivalence is the validation fast path's determinism
// contract at engine level: every strategy discovers identical IND/UCC/FD
// sets no matter how the checks are answered — one worker or many, default
// cache or a starved one that forces constant re-planning and eviction of
// the fast path's promoted ancestors, on one cache shard or several. Run under
// -race this also exercises concurrent fast checks against the sharded
// cache. (Check counts are NOT compared across cache configurations: how
// often the engine asks is part of the plan; what it discovers must not be.)
func TestFastPathConfigEquivalence(t *testing.T) {
	rels := []*relation.Relation{
		dataset.NCVoter(600, 10),
		dataset.Uniprot(1500),
	}
	type config struct {
		name string
		opts Options
	}
	configs := []config{
		{"parallel", Options{Seed: 11, Workers: 4}},
		{"starved-cache", Options{Seed: 11, Workers: 1, CacheEntries: 8, MaxCacheBytes: 1 << 16}},
		{"parallel-starved-cache", Options{Seed: 11, Workers: 4, CacheEntries: 8, MaxCacheBytes: 1 << 16}},
	}
	for _, rel := range rels {
		src := RelationSource{Rel: rel}
		for _, strategy := range Strategies() {
			baseline, err := RunContext(context.Background(), strategy, src, Options{Seed: 11, Workers: 1}, nil)
			if err != nil {
				t.Fatalf("%s/%s baseline: %v", rel.Name(), strategy, err)
			}
			for _, cfg := range configs {
				got, err := RunContext(context.Background(), strategy, src, cfg.opts, nil)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", rel.Name(), strategy, cfg.name, err)
				}
				if !reflect.DeepEqual(got.FDs, baseline.FDs) {
					t.Errorf("%s/%s %s: FDs differ from baseline (%d vs %d)",
						rel.Name(), strategy, cfg.name, len(got.FDs), len(baseline.FDs))
				}
				if !reflect.DeepEqual(got.UCCs, baseline.UCCs) {
					t.Errorf("%s/%s %s: UCCs differ from baseline (%d vs %d)",
						rel.Name(), strategy, cfg.name, len(got.UCCs), len(baseline.UCCs))
				}
				if !reflect.DeepEqual(got.INDs, baseline.INDs) {
					t.Errorf("%s/%s %s: INDs differ from baseline (%d vs %d)",
						rel.Name(), strategy, cfg.name, len(got.INDs), len(baseline.INDs))
				}
			}
		}
	}
}

// TestFastPathCountersSurface proves the new CacheStats counters flow
// through the engine's Report plumbing: a MUDS run is validation-dominated,
// so it must report fast checks, and its cache must stay far below what the
// old materialize-every-check policy would have admitted.
func TestFastPathCountersSurface(t *testing.T) {
	rel := dataset.NCVoter(800, 12)
	res, err := RunRelationContext(context.Background(), StrategyMuds, rel, Options{Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cache) == 0 {
		t.Fatal("no cache stats in the report")
	}
	st := res.Cache[0]
	if st.FastChecks == 0 {
		t.Error("MUDS run reports zero FastChecks — the fast path is not wired in")
	}
	if st.Materializations > st.FastChecks {
		t.Errorf("materializations (%d) exceed fast checks (%d): admission control is not limiting promotions",
			st.Materializations, st.FastChecks)
	}
}
