package incremental

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/core"
	"holistic/internal/dataset"
	"holistic/internal/faults"
	"holistic/internal/fd"
	"holistic/internal/ind"
	"holistic/internal/pli"
	"holistic/internal/relation"
)

// randomRows draws rows whose per-column cardinality varies enough to make
// UCC violations, FD violations and IND repairs all reachable.
func randomRows(rng *rand.Rand, rows, cols int, nullRate float64, tag string) [][]string {
	out := make([][]string, rows)
	for i := range out {
		row := make([]string, cols)
		for c := range row {
			if rng.Float64() < nullRate {
				row[c] = ""
			} else {
				row[c] = fmt.Sprintf("%s%d", tag, rng.Intn(3+2*c))
			}
		}
		out[i] = row
	}
	return out
}

// relationRows turns a relation back into its rows of values.
func relationRows(rel *relation.Relation) [][]string {
	out := make([][]string, rel.NumRows())
	for i := range out {
		row := make([]string, rel.NumColumns())
		for c := range row {
			row[c] = rel.Value(i, c)
		}
		out[i] = row
	}
	return out
}

func mustRelation(t testing.TB, rows [][]string, cols int, opts relation.Options) *relation.Relation {
	t.Helper()
	names := make([]string, cols)
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	rel, err := relation.NewWithOptions("t", names, rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// assertSameResult compares the three metadata families order-independently,
// honouring which families the strategy emits.
func assertSameResult(t *testing.T, label string, got, want *core.Result, hasINDs, hasUCCs bool) {
	t.Helper()
	if hasINDs {
		g, w := append([]ind.IND(nil), got.INDs...), append([]ind.IND(nil), want.INDs...)
		ind.Sort(g)
		ind.Sort(w)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: INDs differ\ngot  %v\nwant %v", label, g, w)
		}
	}
	if hasUCCs {
		g, w := append([]bitset.Set(nil), got.UCCs...), append([]bitset.Set(nil), want.UCCs...)
		bitset.Sort(g)
		bitset.Sort(w)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: UCCs differ\ngot  %v\nwant %v", label, g, w)
		}
	}
	g, w := append([]fd.FD(nil), got.FDs...), append([]fd.FD(nil), want.FDs...)
	fd.Sort(g)
	fd.Sort(w)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: FDs differ\ngot  %v\nwant %v", label, g, w)
	}
}

// TestIncrementalEquivalence is the differential spine of the subsystem:
// randomized bases, 1–5 appended batches, three strategies, both NULL
// semantics — after every batch the incrementally maintained result must
// equal a from-scratch run of the same strategy on the concatenated rows.
// The 5,000-row uniprot and ncvoter generators, each taking two batches of
// 0.5% of the rows under MUDS, add the shapes BenchmarkAppendBatch times.
func TestIncrementalEquivalence(t *testing.T) {
	strategies := []string{core.StrategyMuds, core.StrategyTane, core.StrategyHolisticFun}
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		for _, distinctNulls := range []bool{false, true} {
			for _, strategy := range strategies {
				label := fmt.Sprintf("trial=%d distinctNulls=%v strategy=%s", trial, distinctNulls, strategy)
				cols := 3 + rng.Intn(3)
				relOpts := relation.Options{DistinctNulls: distinctNulls}
				base := randomRows(rng, 20+rng.Intn(40), cols, 0.08, "v")
				all := append([][]string(nil), base...)
				rel := mustRelation(t, base, cols, relOpts)

				opts := core.Options{Seed: int64(trial), Workers: 1 + rng.Intn(3)}
				p, _, err := NewProfiler(ctx, rel, strategy, opts, nil)
				if err != nil {
					t.Fatalf("%s: initial profile: %v", label, err)
				}
				hasINDs, hasUCCs, _ := families(strategy)

				batches := 1 + rng.Intn(5)
				for bi := 0; bi < batches; bi++ {
					batch := randomRows(rng, 1+rng.Intn(12), cols, 0.08, fmt.Sprintf("b%d_", bi))
					// Mix in repeats of earlier rows so duplicate dropping sees
					// traffic.
					for k := 0; k < 1+rng.Intn(3); k++ {
						batch = append(batch, append([]string(nil), all[rng.Intn(len(all))]...))
					}
					all = append(all, batch...)

					got, err := p.AppendBatch(ctx, batch, nil)
					if err != nil {
						t.Fatalf("%s batch %d: %v", label, bi, err)
					}
					if got.Partial {
						t.Fatalf("%s batch %d: unexpected partial result", label, bi)
					}
					if p.Version() != bi+1 {
						t.Fatalf("%s batch %d: version %d", label, bi, p.Version())
					}

					scratch := mustRelation(t, all, cols, relOpts)
					want, err := core.RunRelationContext(ctx, strategy, scratch, opts, nil)
					if err != nil {
						t.Fatalf("%s batch %d: from-scratch: %v", label, bi, err)
					}
					assertSameResult(t, fmt.Sprintf("%s batch %d", label, bi), got, want, hasINDs, hasUCCs)
				}
			}
		}
	}

	for _, full := range []*relation.Relation{dataset.Uniprot(5000), dataset.NCVoter(5000, 12)} {
		all := relationRows(full)
		cols, batch := full.NumColumns(), len(all)/200
		base := len(all) - 2*batch
		opts := core.Options{Seed: 1}
		p, _, err := NewProfiler(ctx, mustRelation(t, all[:base], cols, relation.Options{}), core.StrategyMuds, opts, nil)
		if err != nil {
			t.Fatalf("%s: initial profile: %v", full.Name(), err)
		}
		for end := base + batch; end <= len(all); end += batch {
			got, err := p.AppendBatch(ctx, all[end-batch:end], nil)
			if err != nil {
				t.Fatalf("%s: append up to row %d: %v", full.Name(), end, err)
			}
			want, err := core.RunRelationContext(ctx, core.StrategyMuds, mustRelation(t, all[:end], cols, relation.Options{}), opts, nil)
			if err != nil {
				t.Fatalf("%s: from-scratch up to row %d: %v", full.Name(), end, err)
			}
			assertSameResult(t, fmt.Sprintf("%s up to row %d", full.Name(), end), got, want, true, true)
		}
	}
}

// TestSnapshotRoundTrip drives the CLI resume path: profile, snapshot to
// JSON, rebuild the relation from the same rows, Resume, append — the result
// must match both a warm profiler and a from-scratch run. It then snapshots
// the live session after that batch and resumes it again: the live and the
// resumed session must check the next batch identically, down to its checks
// and the cache counters of the batch's provider, since neither carries PLIs
// from one batch to the next.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ctx := context.Background()
	cols := 6
	base := randomRows(rng, 40, cols, 0.05, "v")
	rel := mustRelation(t, base, cols, relation.Options{})
	opts := core.Options{Seed: 9, Workers: 1}
	p, _, err := NewProfiler(ctx, rel, core.StrategyMuds, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	roundTrip := func(p *Profiler, rows [][]string) *Profiler {
		t.Helper()
		var buf bytes.Buffer
		if err := p.Snapshot().Write(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Version != p.Version() || snap.Algorithm != core.StrategyMuds || !snap.HasINDs {
			t.Fatalf("snapshot header off: %+v", snap)
		}
		resumed, err := Resume(mustRelation(t, rows, cols, relation.Options{}), snap, opts)
		if err != nil {
			t.Fatal(err)
		}
		return resumed
	}
	resumed := roundTrip(p, base)

	batch := randomRows(rng, 10, cols, 0.05, "x")
	all := append(append([][]string(nil), base...), batch...)
	warm, err := p.AppendBatch(ctx, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := resumed.AppendBatch(ctx, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := core.RunRelationContext(ctx, core.StrategyMuds, mustRelation(t, all, cols, relation.Options{}), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "warm vs scratch", warm, scratch, true, true)
	assertSameResult(t, "resumed vs scratch", cold, scratch, true, true)

	// Resume after the first batch. Each row of the next batch copies a
	// profiled row with one field changed, so it violates prior UCCs and
	// FDs and runs the repair walks.
	resumed = roundTrip(p, all)
	next := make([][]string, 10)
	for i := range next {
		next[i] = append([]string(nil), all[rng.Intn(len(all))]...)
		next[i][rng.Intn(cols)] = fmt.Sprintf("y%d", i)
	}
	var liveObs, resumedObs cacheStatsObserver
	live, err := p.AppendBatch(ctx, next, &liveObs)
	if err != nil {
		t.Fatal(err)
	}
	again, err := resumed.AppendBatch(ctx, next, &resumedObs)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{core.PhaseUCCRepair, core.PhaseFDRepair} {
		if !slices.ContainsFunc(live.Phases, func(p core.Phase) bool { return p.Name == phase }) {
			t.Fatalf("next batch ran no %s phase: %v", phase, live.Phases)
		}
	}
	assertSameResult(t, "live vs resumed", again, live, true, true)
	if live.Checks == 0 || again.Checks != live.Checks {
		t.Fatalf("checks: live %d, resumed %d; want equal and non-zero", live.Checks, again.Checks)
	}
	if len(liveObs.stats) != 1 || !reflect.DeepEqual(resumedObs.stats, liveObs.stats) {
		t.Fatalf("cache stats: live %+v, resumed %+v; want one equal snapshot each", liveObs.stats, resumedObs.stats)
	}
}

// cacheStatsObserver records the CacheStats snapshots an AppendBatch reports.
type cacheStatsObserver struct {
	core.NopObserver
	stats []pli.CacheStats
}

func (o *cacheStatsObserver) CacheStats(st pli.CacheStats) { o.stats = append(o.stats, st) }

// TestSnapshotValidate rejects mismatched relations.
func TestSnapshotValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := randomRows(rng, 20, 3, 0, "v")
	rel := mustRelation(t, base, 3, relation.Options{})
	p, _, err := NewProfiler(context.Background(), rel, core.StrategyMuds, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()

	other := mustRelation(t, randomRows(rng, 21, 3, 0, "w"), 3, relation.Options{})
	if _, err := Resume(other, snap, core.Options{}); err == nil {
		t.Fatal("Resume accepted a relation with a different row count")
	}
	snap2 := *snap
	snap2.Columns = []string{"a", "b", "c"}
	if _, err := Resume(rel, &snap2, core.Options{}); err == nil {
		t.Fatal("Resume accepted a relation with different column names")
	}
	snap3 := *snap
	snap3.Algorithm = "nope"
	if _, err := Resume(rel, &snap3, core.Options{}); err == nil {
		t.Fatal("Resume accepted an unknown algorithm")
	}
}

// TestDuplicateOnlyBatch: a batch consisting entirely of existing rows leaves
// the de-duplicated relation — and therefore every dependency — unchanged.
func TestDuplicateOnlyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	base := randomRows(rng, 30, 3, 0, "v")
	rel := mustRelation(t, base, 3, relation.Options{})
	p, initial, err := NewProfiler(context.Background(), rel, core.StrategyMuds, core.Options{Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]string{
		append([]string(nil), base[0]...),
		append([]string(nil), base[1]...),
	}
	res, err := p.AppendBatch(context.Background(), batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "duplicate-only", res, initial, true, true)
	if p.Version() != 1 {
		t.Fatalf("version %d, want 1", p.Version())
	}
}

// TestConstantRelease: a column that is constant in the base stops being
// constant after the batch; its ∅ → A form must be violated and the FD
// lattice re-entered over the grown base.
func TestConstantRelease(t *testing.T) {
	base := [][]string{
		{"k1", "c", "x1"},
		{"k2", "c", "x2"},
		{"k3", "c", "x1"},
	}
	rel := mustRelation(t, base, 3, relation.Options{})
	ctx := context.Background()
	p, _, err := NewProfiler(ctx, rel, core.StrategyMuds, core.Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]string{{"k4", "d", "x2"}}
	got, err := p.AppendBatch(ctx, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]string(nil), base...), batch...)
	want, err := core.RunRelationContext(ctx, core.StrategyMuds, mustRelation(t, all, 3, relation.Options{}), core.Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "constant release", got, want, true, true)
	for _, f := range got.FDs {
		if f.LHS.IsEmpty() && f.RHS == 1 {
			t.Fatalf("column 1 still reported constant: %v", got.FDs)
		}
	}
}

// TestDistinctNullsSpiderFallback: once a NULL enters a DistinctNulls
// relation the matrix regime is unsound and the profiler must fall back to a
// full SPIDER re-merge — results still match from-scratch.
func TestDistinctNullsSpiderFallback(t *testing.T) {
	relOpts := relation.Options{DistinctNulls: true}
	base := [][]string{
		{"a1", "b1"},
		{"a2", "b2"},
		{"a1", "b3"},
	}
	rel := mustRelation(t, base, 2, relOpts)
	ctx := context.Background()
	p, _, err := NewProfiler(ctx, rel, core.StrategyMuds, core.Options{Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.missing == nil {
		t.Fatal("matrix should be usable while the relation has no NULLs")
	}
	all := append([][]string(nil), base...)
	batches := [][][]string{
		{{"", "a1"}},             // first NULL: flips into the fallback regime
		{{"a3", ""}, {"", "b1"}}, // stays there
	}
	for bi, batch := range batches {
		all = append(all, batch...)
		got, err := p.AppendBatch(ctx, batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.missing != nil {
			t.Fatalf("batch %d: matrix must be dropped once NULLs exist", bi)
		}
		want, err := core.RunRelationContext(ctx, core.StrategyMuds, mustRelation(t, all, 2, relOpts), core.Options{Seed: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("fallback batch %d", bi), got, want, true, true)
	}
}

// TestAppendBatchRejectsRaggedRows surfaces input errors instead of mutating.
func TestAppendBatchRejectsRaggedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rel := mustRelation(t, randomRows(rng, 10, 3, 0, "v"), 3, relation.Options{})
	p, _, err := NewProfiler(context.Background(), rel, core.StrategyMuds, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AppendBatch(context.Background(), [][]string{{"only", "two"}}, nil); err == nil {
		t.Fatal("ragged batch row accepted")
	}
	if p.Version() != 0 {
		t.Fatalf("failed batch bumped version to %d", p.Version())
	}
}

// TestAppendBatchPhases: a batch with violations reports the full phase
// sequence and a positive check count.
func TestAppendBatchPhases(t *testing.T) {
	base := [][]string{
		{"k1", "u1", "a"},
		{"k2", "u2", "a"},
		{"k3", "u3", "b"},
	}
	rel := mustRelation(t, base, 3, relation.Options{})
	ctx := context.Background()
	p, _, err := NewProfiler(ctx, rel, core.StrategyMuds, core.Options{Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate column 1's value u1 (violating its UCC and FDs built on it).
	res, err := p.AppendBatch(ctx, [][]string{{"k4", "u1", "b"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ph := range res.Phases {
		seen[ph.Name] = true
	}
	for _, name := range []string{core.PhaseAppend, core.PhaseINDDelta, core.PhaseRevalidate} {
		if !seen[name] {
			t.Fatalf("phase %q missing from %v", name, res.Phases)
		}
	}
	if res.Checks == 0 {
		t.Fatal("no checks reported")
	}
	if res.Algorithm != core.StrategyMuds {
		t.Fatalf("algorithm %q", res.Algorithm)
	}
}

// TestAppendBatchCacheSnapshot: a batch reports its provider's cache
// snapshot in the result, like a full run reports its own.
func TestAppendBatchCacheSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := mustRelation(t, randomRows(rng, 60, 4, 0, "v"), 4, relation.Options{})
	p, _, err := NewProfiler(context.Background(), rel, core.StrategyMuds, core.Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.AppendBatch(context.Background(), randomRows(rng, 10, 4, 0, "w"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cache) != 1 {
		t.Fatalf("batch result holds %d cache snapshots, want 1", len(res.Cache))
	}
}

// TestAppendBatchPanicIsolated arms a PLI fault after the initial profile:
// the first fold of the revalidation panics, and the batch must come back as
// a *core.PanicError beside a partial result that names the phase it broke.
func TestAppendBatchPanicIsolated(t *testing.T) {
	t.Cleanup(faults.Reset)
	rng := rand.New(rand.NewSource(7))
	const cols = 10
	rel := mustRelation(t, randomRows(rng, 400, cols, 0, "v"), cols, relation.Options{})
	p, initial, err := NewProfiler(context.Background(), rel, core.StrategyMuds, core.Options{Seed: 1, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(initial.UCCs, func(u bitset.Set) bool { return u.Len() > 1 }) {
		t.Fatal("no multi-column UCC: the revalidation would fold nothing")
	}
	faults.Enable(faults.PLIIntersect, faults.ModePanic, 1)
	res, err := p.AppendBatch(context.Background(), randomRows(rng, 40, cols, 0, "v"), nil)

	var pe *core.PanicError
	if !errors.As(err, &pe) || !errors.As(err, new(*faults.Error)) {
		t.Fatalf("err = %v (%T), want an injected *core.PanicError", err, err)
	}
	if pe.Strategy != core.StrategyMuds {
		t.Errorf("PanicError.Strategy = %q, want %q", pe.Strategy, core.StrategyMuds)
	}
	if res == nil || !res.Partial || res.Completeness == nil {
		t.Fatalf("result %+v, want a partial result with its completeness", res)
	}
	c := res.Completeness
	if !slices.Equal(c.CompletedPhases, []string{core.PhaseAppend, core.PhaseINDDelta}) || c.InterruptedPhase != core.PhaseRevalidate {
		t.Errorf("completeness %+v, want append and indDelta completed, revalidate interrupted", c)
	}
}
