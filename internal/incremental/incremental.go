package incremental

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"holistic/internal/bitset"
	"holistic/internal/core"
	"holistic/internal/fd"
	"holistic/internal/ind"
	"holistic/internal/parallel"
	"holistic/internal/pli"
	"holistic/internal/relation"
	"holistic/internal/ucc"
	"holistic/internal/walker"
)

// Profiler is a warm incremental profiling session: it owns the relation and
// the complete metadata of the rows profiled so far. AppendBatch folds one
// batch of rows in and returns the updated result. It holds no PLIs between
// batches: each batch builds one provider over the extended relation, which
// its revalidation and repair phases share and which is dropped with the
// batch. A live session and one resumed from its snapshot therefore check
// the next batch identically.
//
// A Profiler is not safe for concurrent use: AppendBatch mutates the relation
// in place (see relation.Append's exclusivity contract).
type Profiler struct {
	rel  *relation.Relation
	opts core.Options

	algorithm string
	hasINDs   bool
	hasUCCs   bool
	hasFDs    bool

	version int
	inds    []ind.IND
	uccs    []bitset.Set
	fds     []fd.FD
	// missing is the IND maintenance matrix; nil when INDs are not maintained
	// or when NULL semantics force the per-batch SPIDER fallback.
	missing *ind.MissingMatrix
}

// matrixUsable reports whether the missing-value matrix models SPIDER's
// containment semantics for rel: under DistinctNulls with NULLs present,
// SPIDER's value lists carry one entry per NULL occurrence (multiset
// semantics, unless NULLs are ignored) and the set-based matrix diverges.
func matrixUsable(rel *relation.Relation, opts ind.Options) bool {
	return !rel.DistinctNulls() || opts.IgnoreNulls || !rel.HasNulls()
}

// NewProfiler runs the named strategy on rel from scratch and returns a warm
// profiler positioned after that initial run (Version 0). The initial profile
// must complete — a partial result is not a sound revalidation baseline — so
// a cancelled or failed run returns its error.
func NewProfiler(ctx context.Context, rel *relation.Relation, algorithm string, opts core.Options, obs core.Observer) (*Profiler, *core.Result, error) {
	res, err := core.RunRelationContext(ctx, algorithm, rel, opts, obs)
	if err != nil {
		return nil, res, err
	}
	p := &Profiler{
		rel:       rel,
		opts:      opts,
		algorithm: algorithm,
		version:   0,
		inds:      res.INDs,
		uccs:      res.UCCs,
		fds:       res.FDs,
	}
	p.hasINDs, p.hasUCCs, p.hasFDs = families(algorithm)
	if p.hasINDs && matrixUsable(rel, opts.IND) {
		p.missing = ind.BuildMissing(rel, opts.IND)
	}
	return p, res, nil
}

// Resume reconstructs a warm profiler from a relation and a snapshot of a
// prior session, without re-running discovery. The snapshot's content
// checksum is verified first (a damaged file fails with ErrCorruptSnapshot);
// then the relation must be the same profiled prefix the snapshot describes
// (Snapshot.Validate enforces the fingerprint). The snapshot's missing-value
// matrix is reused when present and rebuilt from the relation otherwise.
func Resume(rel *relation.Relation, snap *Snapshot, opts core.Options) (*Profiler, error) {
	if err := snap.VerifyChecksum(); err != nil {
		return nil, err
	}
	if _, ok := core.Lookup(snap.Algorithm); !ok {
		return nil, fmt.Errorf("incremental: snapshot algorithm %q is not registered", snap.Algorithm)
	}
	if err := snap.Validate(rel); err != nil {
		return nil, err
	}
	opts.IND.IgnoreNulls = snap.IgnoreNulls
	p := &Profiler{
		rel:       rel,
		opts:      opts,
		algorithm: snap.Algorithm,
		hasINDs:   snap.HasINDs,
		hasUCCs:   snap.HasUCCs,
		hasFDs:    snap.HasFDs,
		version:   snap.Version,
		inds:      decodeINDs(snap.INDs),
		uccs:      decodeSets(snap.UCCs),
		fds:       decodeFDs(snap.FDs),
	}
	if p.hasINDs && matrixUsable(rel, opts.IND) {
		if snap.Missing != nil {
			p.missing = snap.Missing
		} else {
			p.missing = ind.BuildMissing(rel, opts.IND)
		}
	}
	return p, nil
}

// Version returns the number of batches applied so far.
func (p *Profiler) Version() int { return p.version }

// Relation returns the profiled relation (base plus all applied batches).
func (p *Profiler) Relation() *relation.Relation { return p.rel }

// Algorithm returns the registry name of the maintained strategy.
func (p *Profiler) Algorithm() string { return p.algorithm }

// Result returns the current metadata as an engine result (no phase timings —
// those belong to the individual AppendBatch calls).
func (p *Profiler) Result() *core.Result {
	return &core.Result{
		INDs:      append([]ind.IND(nil), p.inds...),
		UCCs:      append([]bitset.Set(nil), p.uccs...),
		FDs:       append([]fd.FD(nil), p.fds...),
		Algorithm: p.algorithm,
	}
}

// Snapshot serializes the profiler's current state.
func (p *Profiler) Snapshot() *Snapshot {
	return &Snapshot{
		Version:       p.version,
		Algorithm:     p.algorithm,
		Relation:      p.rel.Name(),
		Columns:       append([]string(nil), p.rel.ColumnNames()...),
		Rows:          p.rel.NumRows(),
		DistinctNulls: p.rel.DistinctNulls(),
		IgnoreNulls:   p.opts.IND.IgnoreNulls,
		HasINDs:       p.hasINDs,
		HasUCCs:       p.hasUCCs,
		HasFDs:        p.hasFDs,
		INDs:          encodeINDs(p.inds),
		UCCs:          encodeSets(p.uccs),
		FDs:           encodeFDs(p.fds),
		Missing:       p.missing,
	}
}

// batchRun accumulates one AppendBatch's phases and check counts, forwarding
// the events to the caller's observer (mirroring the engine recorder).
type batchRun struct {
	obs    core.Observer
	phases []core.Phase
	checks int
}

func (b *batchRun) phase(ctx context.Context, name string, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.obs.PhaseStart(name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	b.phases = append(b.phases, core.Phase{Name: name, Duration: d})
	b.obs.PhaseEnd(name, d)
	return err
}

func (b *batchRun) addChecks(n int) {
	if n != 0 {
		b.checks += n
		b.obs.Checks(n)
	}
}

// AppendBatch folds one batch of rows into the profiled relation and returns
// the updated complete result — identical (up to order-independent content)
// to a from-scratch run of the same strategy on the concatenated rows.
//
// The work is phased like a full run: "append" extends the relation and
// builds the batch's PLI provider over it, "indDelta" maintains the IND
// matrix (or re-runs SPIDER when NULL semantics require it), "revalidate"
// re-checks every prior UCC and FD with the check kernels, and
// "uccRepair"/"fdRepair" restart the lattice walks seeded with the
// surviving certificates — only when the revalidation actually found
// violations. The observer receives the batch provider's CacheStats at the
// end; a batch whose rows all duplicate existing ones builds no provider
// and reports none.
//
// obs may be nil. On cancellation the profiler state and the relation may be
// mid-update; the session must be discarded (the returned error reports it).
// Panics are isolated into a *core.PanicError like in the engine.
func (p *Profiler) AppendBatch(ctx context.Context, rows [][]string, obs core.Observer) (res *core.Result, err error) {
	if obs == nil {
		obs = core.NopObserver{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, toPanicError(p.algorithm, r)
		}
	}()
	b := &batchRun{obs: obs}
	res, err = p.appendBatch(ctx, rows, b)
	if res != nil {
		res.Phases = b.phases
		res.Checks = b.checks
		res.Algorithm = p.algorithm
		if err != nil {
			res.Partial = true
		}
	}
	return res, err
}

func (p *Profiler) appendBatch(ctx context.Context, rows [][]string, b *batchRun) (*core.Result, error) {
	var delta relation.AppendDelta
	var prov *pli.Provider
	err := b.phase(ctx, core.PhaseAppend, func() error {
		var err error
		delta, err = p.rel.Append(rows)
		if err == nil && delta.Appended > 0 {
			prov = p.opts.NewProvider(p.rel)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if delta.Appended == 0 {
		// Every batch row duplicated an existing row: the de-duplicated
		// relation, and therefore every dependency, is unchanged.
		p.version++
		return p.Result(), nil
	}
	defer func() { b.obs.CacheStats(prov.CacheStats()) }()

	if p.hasINDs {
		err = b.phase(ctx, core.PhaseINDDelta, func() error {
			return p.updateINDs(ctx, delta)
		})
		if err != nil {
			return p.Result(), err
		}
	}

	// Revalidate the prior UCCs and FDs on the extended relation. Appended
	// rows only ever violate dependencies, so the surviving ones are still
	// valid AND still minimal, and the violated ones seed the repair walks as
	// trusted negative certificates.
	var uccValid, uccViolated []bitset.Set
	var fdState *fdRevalidation
	err = b.phase(ctx, core.PhaseRevalidate, func() error {
		if p.hasUCCs {
			// The prior UCCs are independent probes over the shared provider
			// (safe: the engine provider uses a sharded cache), so they fan
			// out across the worker pool like the discovery walks do.
			unique := make([]bool, len(p.uccs))
			workers := parallel.Workers(p.opts.Workers)
			if err := parallel.For(ctx, workers, len(p.uccs), func(i int) {
				unique[i] = prov.IsUnique(p.uccs[i])
			}); err != nil {
				return err
			}
			b.addChecks(len(p.uccs))
			for i, u := range p.uccs {
				if unique[i] {
					uccValid = append(uccValid, u)
				} else {
					uccViolated = append(uccViolated, u)
				}
			}
		}
		if p.hasFDs {
			var err error
			fdState, err = p.revalidateFDs(ctx, b, prov)
			return err
		}
		return nil
	})
	if err != nil {
		return p.Result(), err
	}

	if p.hasUCCs && len(uccViolated) > 0 {
		err = b.phase(ctx, core.PhaseUCCRepair, func() error {
			return p.repairUCCs(ctx, b, prov, uccValid, uccViolated)
		})
		if err != nil {
			return p.Result(), err
		}
	}

	if p.hasFDs && fdState.needsRepair() {
		err = b.phase(ctx, core.PhaseFDRepair, func() error {
			return p.repairFDs(ctx, b, prov, fdState)
		})
		if err != nil {
			return p.Result(), err
		}
	} else if p.hasFDs {
		p.fds = fdState.unchangedFDs()
	}

	p.version++
	return p.Result(), nil
}

// updateINDs maintains the unary INDs: exact matrix delta when the matrix
// models the NULL semantics, full SPIDER re-merge otherwise. A batch can
// flip the matrix into the fallback regime (the first NULL appended to a
// DistinctNulls relation); the matrix is then dropped for good — NULLs never
// leave a dictionary.
func (p *Profiler) updateINDs(ctx context.Context, delta relation.AppendDelta) error {
	if p.missing != nil && matrixUsable(p.rel, p.opts.IND) {
		p.missing.Update(p.rel, delta.OldCard)
		p.inds = p.missing.INDs()
		return nil
	}
	p.missing = nil
	inds, err := ind.SpiderContext(ctx, p.rel, p.opts.IND)
	if err != nil {
		return err
	}
	p.inds = inds
	return nil
}

// repairUCCs restarts DUCC over the invalidated lattice region: the
// revalidated prior UCCs enter as trusted positives, the violated ones and
// the prior maximal non-uniques (reconstructed from the prior minimal family
// by hitting-set duality, still non-unique by monotonicity) as trusted
// negatives, so the walk only explores supersets of the violations.
func (p *Profiler) repairUCCs(ctx context.Context, b *batchRun, prov *pli.Provider, valid, violated []bitset.Set) error {
	base := p.rel.AllColumns()
	knownFalse := append([]bitset.Set(nil), violated...)
	hits, err := walker.MinimalHittingSets(ctx, p.uccs, base)
	if err != nil {
		return err
	}
	for _, h := range hits {
		knownFalse = append(knownFalse, base.Diff(h))
	}
	res, err := ucc.DuccSeeded(ctx, prov, p.opts.Seed, valid, knownFalse)
	b.addChecks(res.Checks)
	if err != nil {
		return err
	}
	p.uccs = res.Minimal
	bitset.Sort(p.uccs)
	return nil
}

// fdRevalidation is the per-RHS outcome of re-checking the prior FDs.
type fdRevalidation struct {
	constNew bitset.Set // constant columns of the extended relation
	working  bitset.Set // AllColumns \ constNew
	oldLHSs  [][]bitset.Set
	valid    [][]bitset.Set
	violated [][]bitset.Set
}

func (f *fdRevalidation) needsRepair() bool {
	for _, v := range f.violated {
		if len(v) > 0 {
			return true
		}
	}
	return false
}

// unchangedFDs rebuilds the FD list when no prior FD was violated: since
// appends only violate FDs and none was, every prior family is provably still
// the complete minimal family — even over a base that grew by released
// constants, because while a column was constant it never distinguished rows.
func (f *fdRevalidation) unchangedFDs() []fd.FD {
	var out []fd.FD
	f.constNew.ForEach(func(a int) { out = append(out, fd.FD{RHS: a}) })
	for rhs, lhss := range f.oldLHSs {
		if f.constNew.Has(rhs) {
			continue
		}
		for _, lhs := range lhss {
			out = append(out, fd.FD{LHS: lhs, RHS: rhs})
		}
	}
	fd.Sort(out)
	return out
}

// revalidateFDs re-checks every prior minimal FD on the extended relation,
// batching FDs that share a left-hand side through the multi-RHS refinement
// kernel (one fold of the LHS partition answers all of them). Previously
// constant columns that the batch released are violations of their ∅ → A
// form by definition — no data check needed.
func (p *Profiler) revalidateFDs(ctx context.Context, b *batchRun, prov *pli.Provider) (*fdRevalidation, error) {
	n := p.rel.NumColumns()
	st := &fdRevalidation{
		constNew: fd.ConstantColumns(prov),
		oldLHSs:  make([][]bitset.Set, n),
		valid:    make([][]bitset.Set, n),
		violated: make([][]bitset.Set, n),
	}
	st.working = p.rel.AllColumns().Diff(st.constNew)
	for _, f := range p.fds {
		st.oldLHSs[f.RHS] = append(st.oldLHSs[f.RHS], f.LHS)
	}
	groups := make(map[bitset.Set]bitset.Set)
	for rhs := 0; rhs < n; rhs++ {
		if st.constNew.Has(rhs) {
			continue // still constant: ∅ → rhs survives untouched
		}
		for _, lhs := range st.oldLHSs[rhs] {
			if lhs.IsEmpty() {
				// rhs was constant and no longer is: ∅ → rhs is violated.
				st.violated[rhs] = append(st.violated[rhs], lhs)
				continue
			}
			groups[lhs] = groups[lhs].With(rhs)
		}
	}
	// Each group is one independent kernel invocation; sort the keys for a
	// deterministic certificate order and fan the folds out across the pool.
	keys := make([]bitset.Set, 0, len(groups))
	for lhs := range groups {
		keys = append(keys, lhs)
	}
	bitset.Sort(keys)
	oks := make([]bitset.Set, len(keys))
	workers := parallel.Workers(p.opts.Workers)
	if err := parallel.For(ctx, workers, len(keys), func(i int) {
		oks[i] = prov.CheckFDs(keys[i], groups[keys[i]])
	}); err != nil {
		return st, err
	}
	for i, lhs := range keys {
		rhsSet := groups[lhs]
		b.addChecks(rhsSet.Len())
		rhsSet.ForEach(func(rhs int) {
			if oks[i].Has(rhs) {
				st.valid[rhs] = append(st.valid[rhs], lhs)
			} else {
				st.violated[rhs] = append(st.violated[rhs], lhs)
			}
		})
	}
	return st, nil
}

// repairFDs rebuilds the FD list after violations: right-hand sides whose
// families survived intact are copied verbatim, the others re-enter the
// lattice walk seeded with their surviving certificates (fd.RepairRHS). The
// per-RHS repairs are independent and fan out across the worker pool, like
// the calculateRZ phase of MUDS.
func (p *Profiler) repairFDs(ctx context.Context, b *batchRun, prov *pli.Provider, st *fdRevalidation) error {
	n := p.rel.NumColumns()
	repaired := make([][]bitset.Set, n)
	checks := make([]int, n)
	errs := make([]error, n)
	var targets []int
	st.working.ForEach(func(rhs int) {
		if len(st.violated[rhs]) > 0 {
			targets = append(targets, rhs)
		}
	})
	workers := parallel.Workers(p.opts.Workers)
	if err := parallel.For(ctx, workers, len(targets), func(i int) {
		rhs := targets[i]
		base := st.working.Without(rhs)
		repaired[rhs], checks[i], errs[i] = fd.RepairRHS(
			ctx, prov, base, rhs, st.valid[rhs], st.violated[rhs], st.oldLHSs[rhs], p.opts.Seed)
	}); err != nil {
		return err
	}
	total := 0
	for _, c := range checks {
		total += c
	}
	b.addChecks(total)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var out []fd.FD
	st.constNew.ForEach(func(a int) { out = append(out, fd.FD{RHS: a}) })
	st.working.ForEach(func(rhs int) {
		lhss := st.oldLHSs[rhs]
		if len(st.violated[rhs]) > 0 {
			lhss = repaired[rhs]
		}
		for _, lhs := range lhss {
			out = append(out, fd.FD{LHS: lhs, RHS: rhs})
		}
	})
	fd.Sort(out)
	p.fds = out
	return nil
}

// toPanicError mirrors the engine's panic isolation: a recovered panic value
// becomes a *core.PanicError, preserving a parallel worker's original stack.
func toPanicError(algorithm string, r any) error {
	if tp, ok := r.(*parallel.TaskPanic); ok {
		return &core.PanicError{Strategy: algorithm, Value: tp, Stack: string(tp.Stack)}
	}
	return &core.PanicError{Strategy: algorithm, Value: r, Stack: string(debug.Stack())}
}
