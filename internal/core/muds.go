package core

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/fd"
	"holistic/internal/ind"
	"holistic/internal/parallel"
	"holistic/internal/pli"
	"holistic/internal/relation"
	"holistic/internal/ucc"
)

// Options configures a MUDS run (and the other strategies where relevant).
type Options struct {
	// Seed fixes the randomized traversal orders of DUCC and the R\Z walk.
	// Results are independent of the seed.
	Seed int64
	// IND configures the SPIDER sub-algorithm.
	IND ind.Options
	// CacheEntries bounds the shared PLI cache (0 = default).
	CacheEntries int
	// MaxCacheBytes budgets the approximate heap held by the shared PLI
	// cache (0 = default of pli.DefaultCacheBytes; < 0 disables the byte
	// budget). When the budget is hit the cache sheds intersections and the
	// strategies recompute them on demand — the memory governor trades time
	// for bounded memory, and the discovered IND/UCC/FD sets are identical
	// for every budget. Only the DUCC and MUDS walks hold cache entries:
	// FUN and TANE keep one prefix path of PLIs per worker outside the
	// cache, bounded by construction.
	MaxCacheBytes int64
	// Workers bounds the worker pool of the parallel phases: single-column
	// PLI construction, FUN/TANE per-level candidate validation, and the
	// per-right-hand-side R\Z and completion-sweep walks of MUDS. <= 0
	// selects runtime.GOMAXPROCS(0). The discovered IND/UCC/FD sets are
	// identical for every value; only wall time (and cache statistics)
	// varies. It also sets the shard count of the shared PLI cache.
	Workers int
}

// workerCount resolves Workers to an effective pool width.
func (o Options) workerCount() int { return parallel.Workers(o.Workers) }

// cacheBudget resolves MaxCacheBytes to the effective byte budget handed to
// the cache constructors: 0 = default, < 0 = unbudgeted.
func (o Options) cacheBudget() int64 {
	switch {
	case o.MaxCacheBytes < 0:
		return 0 // explicit opt-out: no byte budget
	case o.MaxCacheBytes == 0:
		return pli.DefaultCacheBytes
	default:
		return o.MaxCacheBytes
	}
}

// NewProvider builds the PLI provider for one strategy run over a cache with
// one shard per worker (a single shard when the run stays sequential),
// byte-budgeted (the memory governor) per cacheBudget. It is exported for
// the incremental layer, which builds one provider per appended batch with
// exactly the engine's cache configuration, so that incremental and
// from-scratch runs are comparable.
func (o Options) NewProvider(rel *relation.Relation) *pli.Provider {
	return pli.NewProvider(rel, pli.NewCache(o.workerCount(), o.CacheEntries, o.cacheBudget()))
}

// mudsProfile is the registered MUDS strategy (paper Sec. 5): SPIDER while
// reading (shared I/O), DUCC on the shared PLIs, and UCC-first FD discovery:
// one lattice walk per right-hand side, first over the columns in no minimal
// UCC, then over the rest, seeded with the certificates the minimal UCCs
// imply. Phase timings and check totals flow through the observer (the
// engine's recorder assembles them into the Result).
func mudsProfile(ctx context.Context, rel *relation.Relation, opts Options, obs Observer) (*Result, error) {
	res := &Result{}
	workers := opts.workerCount()

	var p *pli.Provider
	err := TimePhase(ctx, obs, PhaseSpider, func() error {
		// SPIDER consumes the sorted duplicate-free value lists; the PLIs
		// are built in the same pass over the input (paper Sec. 5: "Since
		// this algorithm already requires to read and sort all records,
		// Muds also builds the PLIs in this step"). The sort and the
		// single-column PLI construction fan out per column; the merge
		// itself is sequential.
		obs.Parallelism(PhaseSpider, workers)
		inds, err := ind.SpiderContext(ctx, rel, opts.IND)
		if err != nil {
			return err
		}
		res.INDs = inds
		p = opts.NewProvider(rel)
		return nil
	})
	if err != nil {
		return res, err
	}
	defer func() { obs.CacheStats(p.CacheStats()) }()

	var uccRes ucc.Result
	err = TimePhase(ctx, obs, PhaseDucc, func() error {
		// The DUCC random walk is sequential by construction: every step
		// extends the certificate families the next step prunes with.
		obs.Parallelism(PhaseDucc, 1)
		var err error
		uccRes, err = ucc.DuccContext(ctx, p, opts.Seed)
		obs.Checks(uccRes.Checks)
		return err
	})
	res.UCCs = uccRes.Minimal
	if err != nil {
		return res, err
	}

	store := fd.NewStore()
	constants := fd.ConstantColumns(p)
	constants.ForEach(func(a int) { store.Add(bitset.Set{}, a) })

	if rel.NumRows() > 1 {
		working := rel.AllColumns().Diff(constants)
		m := newMudsFD(p, working, res.UCCs, store, opts.Seed)
		m.ctx = ctx
		m.workers = workers
		err = mudsFDPhases(ctx, m, obs)
		obs.Checks(m.checks)
	}

	res.FDs = store.All()
	return res, err
}

// mudsFDPhases runs the two FD phases of MUDS, stopping at the first that
// reports cancellation: the R\Z walks (paper Sec. 5.2), then the completion
// sweep over Z, which replaces the paper's minimizeFDs and shadowed-FD
// phases (see sweep.go). The two phases share no state but the provider;
// both fan out one walk per right-hand side across the worker pool.
func mudsFDPhases(ctx context.Context, m *mudsFD, obs Observer) error {
	for _, phase := range []struct {
		name string
		run  func()
	}{
		{PhaseCalculateRZ, m.calculateRZ},
		{PhaseCompletionSweep, m.completionSweep},
	} {
		err := TimePhase(ctx, obs, phase.name, m.run(func() {
			obs.Parallelism(phase.name, m.workerCount())
			phase.run()
		}))
		if err != nil {
			return err
		}
	}
	return nil
}
