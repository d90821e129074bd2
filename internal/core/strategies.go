package core

import (
	"context"

	"holistic/internal/fd"
	"holistic/internal/ind"
	"holistic/internal/pli"
	"holistic/internal/relation"
	"holistic/internal/ucc"
)

// Strategy names accepted by Run. The names double as registry keys; the
// implementations are registered below in the same order, which Strategies()
// preserves for help texts.
const (
	StrategyMuds        = "muds"
	StrategyHolisticFun = "hfun"
	StrategyBaseline    = "baseline"
	StrategyTane        = "tane"
	StrategyFDFirst     = "fdfirst"
)

func init() {
	Register(strategyFunc{StrategyMuds, mudsProfile})
	Register(strategyFunc{StrategyHolisticFun, hfunProfile})
	Register(strategyFunc{StrategyBaseline, baselineProfile})
	Register(strategyFunc{StrategyTane, taneProfile})
	Register(strategyFunc{StrategyFDFirst, fdFirstProfile})
}

// hfunProfile runs Holistic FUN (paper Sec. 3.2): SPIDER while reading, then
// FUN extended to also return the minimal UCCs it traverses.
func hfunProfile(ctx context.Context, rel *relation.Relation, opts Options, obs Observer) (*Result, error) {
	res := &Result{}
	workers := opts.workerCount()
	var p *pli.Provider
	err := TimePhase(ctx, obs, PhaseSpider, func() error {
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
	err = TimePhase(ctx, obs, PhaseFDDiscovery, func() error {
		obs.Parallelism(PhaseFDDiscovery, workers)
		r, err := fd.FunContext(ctx, p, workers)
		res.FDs = r.FDs
		res.UCCs = r.MinimalUCCs
		obs.Checks(r.Checks)
		return err
	})
	obs.CacheStats(p.CacheStats())
	return res, err
}

// baselineProfile executes the sequential baseline of the paper's
// evaluation: SPIDER, DUCC and FUN run one after another as independent
// algorithms, each building its own data structures. The engine harness
// already paid the first input pass; the DUCC and FUN passes re-encode the
// relation (RelationSource semantics) as additional timed "load" phases, so
// the baseline still pays the per-algorithm input cost the holistic
// strategies share.
func baselineProfile(ctx context.Context, rel *relation.Relation, opts Options, obs Observer) (*Result, error) {
	res := &Result{}
	workers := opts.workerCount()

	reload := func() (*relation.Relation, error) {
		var fresh *relation.Relation
		err := TimePhase(ctx, obs, PhaseLoad, func() error {
			var err error
			fresh, err = RelationSource{Rel: rel}.Load()
			return err
		})
		return fresh, err
	}

	// SPIDER on the harness-loaded relation.
	err := TimePhase(ctx, obs, PhaseSpider, func() error {
		obs.Parallelism(PhaseSpider, workers)
		inds, err := ind.SpiderContext(ctx, rel, opts.IND)
		res.INDs = inds
		return err
	})
	if err != nil {
		return res, err
	}

	// DUCC with its own input pass and its own PLIs.
	duccRel, err := reload()
	if err != nil {
		return res, err
	}
	err = TimePhase(ctx, obs, PhaseUCCDiscovery, func() error {
		obs.Parallelism(PhaseUCCDiscovery, 1)
		p := pli.NewProvider(duccRel, pli.NewCache(1, opts.CacheEntries, opts.cacheBudget()))
		defer func() { obs.CacheStats(p.CacheStats()) }()
		r, err := ucc.DuccContext(ctx, p, opts.Seed)
		res.UCCs = r.Minimal
		obs.Checks(r.Checks)
		return err
	})
	if err != nil {
		return res, err
	}

	// FUN with its own input pass and its own PLIs (FD output only; the
	// baseline's UCCs come from DUCC).
	funRel, err := reload()
	if err != nil {
		return res, err
	}
	err = TimePhase(ctx, obs, PhaseFDDiscovery, func() error {
		obs.Parallelism(PhaseFDDiscovery, workers)
		p := opts.NewProvider(funRel)
		defer func() { obs.CacheStats(p.CacheStats()) }()
		r, err := fd.FunContext(ctx, p, workers)
		res.FDs = r.FDs
		obs.Checks(r.Checks)
		return err
	})
	return res, err
}

// fdFirstProfile implements the "FDs first" holistic approach of paper
// Sec. 3.1: SPIDER while reading, FUN for the minimal FDs, and the minimal
// UCCs *inferred* from the FDs via Lemma 2 (closure-based key derivation)
// instead of being discovered on the data. The paper rejects this approach
// for the inference overhead; having it runnable makes that overhead
// measurable (the "uccInference" phase).
func fdFirstProfile(ctx context.Context, rel *relation.Relation, opts Options, obs Observer) (*Result, error) {
	res := &Result{}
	workers := opts.workerCount()
	err := TimePhase(ctx, obs, PhaseSpider, func() error {
		obs.Parallelism(PhaseSpider, workers)
		inds, err := ind.SpiderContext(ctx, rel, opts.IND)
		res.INDs = inds
		return err
	})
	if err != nil {
		return res, err
	}
	var store *fd.Store
	err = TimePhase(ctx, obs, PhaseFDDiscovery, func() error {
		obs.Parallelism(PhaseFDDiscovery, workers)
		p := opts.NewProvider(rel)
		defer func() { obs.CacheStats(p.CacheStats()) }()
		r, err := fd.FunContext(ctx, p, workers)
		res.FDs = r.FDs
		obs.Checks(r.Checks)
		if err != nil {
			return err
		}
		store = fd.NewStore()
		for _, f := range r.FDs {
			store.Add(f.LHS, f.RHS)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	err = TimePhase(ctx, obs, PhaseUCCInference, func() error {
		obs.Parallelism(PhaseUCCInference, 1)
		uccs, err := store.DeriveUCCsContext(ctx, rel.AllColumns(), opts.Seed)
		res.UCCs = uccs
		return err
	})
	return res, err
}

// taneProfile runs the non-holistic TANE FD algorithm (Table 3's fourth
// column). It discovers FDs only.
func taneProfile(ctx context.Context, rel *relation.Relation, opts Options, obs Observer) (*Result, error) {
	res := &Result{}
	workers := opts.workerCount()
	err := TimePhase(ctx, obs, PhaseFDDiscovery, func() error {
		obs.Parallelism(PhaseFDDiscovery, workers)
		p := opts.NewProvider(rel)
		defer func() { obs.CacheStats(p.CacheStats()) }()
		r, err := fd.TaneContext(ctx, p, workers)
		res.FDs = r.FDs
		obs.Checks(r.Checks)
		return err
	})
	return res, err
}
