package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"holistic/internal/dataset"
	"holistic/internal/faults"
	"holistic/internal/relation"
)

// registerPanicStrategy installs a strategy that always panics, for proving
// the engine's isolation without faking faults in real algorithms. It is
// removed again on cleanup so tests that enumerate the registry (exact
// registry contents, worker-count equivalence over Strategies()) never see
// it, regardless of test ordering.
func registerPanicStrategy(t *testing.T) {
	t.Helper()
	Register(strategyFunc{"panictest", func(ctx context.Context, rel *relation.Relation, opts Options, obs Observer) (*Result, error) {
		obs.PhaseStart("boom")
		panic("panictest exploded")
	}})
	t.Cleanup(func() { unregisterStrategy("panictest") })
}

// unregisterStrategy removes a test-registered strategy from the global
// registry (test support only; production registration is permanent).
func unregisterStrategy(name string) {
	delete(registry.byName, name)
	for i, n := range registry.order {
		if n == name {
			registry.order = append(registry.order[:i], registry.order[i+1:]...)
			break
		}
	}
}

// TestPanickingStrategyIsolated is the engine's panic-isolation contract: a
// panicking strategy surfaces as a *PanicError with the captured stack and a
// partial result carrying the completeness markers — never as an unwound
// caller goroutine.
func TestPanickingStrategyIsolated(t *testing.T) {
	registerPanicStrategy(t)
	rel := dataset.NCVoter(50, 4)
	res, err := RunContext(context.Background(), "panictest", RelationSource{Rel: rel}, Options{}, nil)

	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Strategy != "panictest" || !strings.Contains(pe.Error(), "panictest exploded") {
		t.Fatalf("PanicError = %v, want strategy and panic value named", pe)
	}
	if !strings.Contains(pe.Stack, "goroutine") {
		t.Fatalf("PanicError.Stack does not look like a stack trace:\n%s", pe.Stack)
	}
	if res == nil || !res.Partial {
		t.Fatal("panicked run must return a partial result")
	}
	if res.Completeness == nil || res.Completeness.InterruptedPhase != "boom" {
		t.Fatalf("completeness = %+v, want interrupted phase \"boom\"", res.Completeness)
	}
}

// TestWorkerPanicCrossesPoolBoundary injects a panic into a PLI intersection
// running inside the worker pool: it must come back as a *PanicError that
// unwraps to the injected fault, with the worker's own stack preserved.
func TestWorkerPanicCrossesPoolBoundary(t *testing.T) {
	faults.Enable(faults.PLIIntersect, faults.ModePanic, 1)
	t.Cleanup(faults.Reset)

	rel := dataset.NCVoter(200, 6)
	res, err := RunContext(context.Background(), StrategyMuds, RelationSource{Rel: rel}, Options{Workers: 4}, nil)

	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if !errors.As(err, new(*faults.Error)) {
		t.Fatalf("injected fault not classifiable through the panic chain: %v", err)
	}
	if !strings.Contains(pe.Stack, "holistic/internal/pli") {
		t.Fatalf("stack lost the panicking frame:\n%s", pe.Stack)
	}
	if res == nil || !res.Partial {
		t.Fatal("panicked run must return a partial result")
	}
}

// TestWorkerPanicInLevelWiseStrategies injects a panic into the PLI
// intersections of the FUN and TANE runs, which build their prefix-path PLIs
// inside the worker pool without the cache: the fault must still fire there
// and come back as a *PanicError unwrapping to the injected fault.
func TestWorkerPanicInLevelWiseStrategies(t *testing.T) {
	t.Cleanup(faults.Reset)
	rel := dataset.NCVoter(200, 6)
	for _, strategy := range []string{StrategyHolisticFun, StrategyTane} {
		faults.Reset()
		faults.Enable(faults.PLIIntersect, faults.ModePanic, 1)
		_, err := RunContext(context.Background(), strategy, RelationSource{Rel: rel}, Options{Workers: 4}, nil)
		var pe *PanicError
		if !errors.As(err, &pe) || !errors.As(err, new(*faults.Error)) {
			t.Fatalf("%s: err = %v (%T), want an injected *PanicError", strategy, err, err)
		}
		if !strings.Contains(pe.Stack, "holistic/internal/fd.levelErrorSums") {
			t.Fatalf("%s: the fault did not fire in the level-wise counting:\n%s", strategy, pe.Stack)
		}
	}
}

// TestCacheBudgetEquivalence is the memory governor's acceptance criterion:
// shrinking the PLI byte budget to a tiny fraction of a run's working set
// forces shedding and recomputation but yields byte-identical IND/UCC/FD
// sets for every strategy.
func TestCacheBudgetEquivalence(t *testing.T) {
	rel := dataset.NCVoter(500, 10)
	src := RelationSource{Rel: rel}
	for _, strategy := range Strategies() {
		reference, err := RunContext(context.Background(), strategy, src, Options{Seed: 3, MaxCacheBytes: -1}, nil)
		if err != nil {
			t.Fatalf("%s unbudgeted: %v", strategy, err)
		}
		// A budget of a few KiB is far below this workload's PLI footprint,
		// so the cache must shed constantly.
		budgeted, err := RunContext(context.Background(), strategy, src, Options{Seed: 3, MaxCacheBytes: 4 << 10}, nil)
		if err != nil {
			t.Fatalf("%s budgeted: %v", strategy, err)
		}
		if !reflect.DeepEqual(budgeted.INDs, reference.INDs) ||
			!reflect.DeepEqual(budgeted.UCCs, reference.UCCs) ||
			!reflect.DeepEqual(budgeted.FDs, reference.FDs) {
			t.Errorf("%s: budgeted results differ from unbudgeted", strategy)
		}
		var bytes int64
		for _, c := range budgeted.Cache {
			if c.Bytes > bytes {
				bytes = c.Bytes
			}
		}
		if bytes > 4<<10 {
			t.Errorf("%s: final cache holds %d bytes, budget is %d", strategy, bytes, 4<<10)
		}
	}
}

// TestCacheFaultDegradation proves the cache fault points degrade rather than
// fail: with every get a forced miss and every put dropped, runs succeed with
// identical results (recomputation replaces reuse).
func TestCacheFaultDegradation(t *testing.T) {
	rel := dataset.NCVoter(300, 8)
	src := RelationSource{Rel: rel}
	clean, err := RunContext(context.Background(), StrategyMuds, src, Options{Seed: 5}, nil)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	faults.Enable(faults.CacheGet, faults.ModeError, 0)
	faults.Enable(faults.CachePut, faults.ModeError, 0)
	t.Cleanup(faults.Reset)
	degraded, err := RunContext(context.Background(), StrategyMuds, src, Options{Seed: 5}, nil)
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if !reflect.DeepEqual(degraded.INDs, clean.INDs) ||
		!reflect.DeepEqual(degraded.UCCs, clean.UCCs) ||
		!reflect.DeepEqual(degraded.FDs, clean.FDs) {
		t.Error("cache-degraded results differ from clean run")
	}
	if faults.Fired(faults.CacheGet) == 0 {
		t.Error("cache.get fault never fired; degradation not exercised")
	}
}

// TestTinyBudgetStillUsesProvider guards against the governor silently
// disabling caching altogether: even under a 1-byte budget the single-column
// PLIs (outside the cache) keep the provider functional.
func TestTinyBudgetStillUsesProvider(t *testing.T) {
	rel := dataset.NCVoter(100, 5)
	res, err := RunContext(context.Background(), StrategyMuds, RelationSource{Rel: rel}, Options{MaxCacheBytes: 1}, nil)
	if err != nil {
		t.Fatalf("1-byte budget run: %v", err)
	}
	if len(res.FDs) == 0 && len(res.UCCs) == 0 {
		t.Fatal("1-byte budget run found nothing; provider broken under extreme budget")
	}
	for _, c := range res.Cache {
		if c.Entries != 0 {
			t.Fatalf("1-byte budget retained %d cached PLIs", c.Entries)
		}
	}
}

// TestPartialReportRoundTrip checks Partial/Completeness survive the
// Result → Report conversion.
func TestPartialReportRoundTrip(t *testing.T) {
	rel := dataset.NCVoter(50, 4)
	res := &Result{Partial: true, Completeness: &Completeness{CompletedPhases: []string{"SPIDER"}, InterruptedPhase: "DUCC"}}
	rep := NewReport(rel, res, false)
	if !rep.Partial {
		t.Fatal("report lost the partial flag")
	}
	if rep.Completeness == nil || rep.Completeness.InterruptedPhase != "DUCC" || len(rep.Completeness.CompletedPhases) != 1 {
		t.Fatalf("report completeness = %+v", rep.Completeness)
	}
}
