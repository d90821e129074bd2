package ucc

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/pli"
	"holistic/internal/walker"
)

// Ducc discovers all minimal UCCs with the DUCC strategy (paper Sec. 2.2):
// a randomized walk over the lattice that descends from uniques and ascends
// from non-uniques, pruning supersets of UCCs and subsets of non-UCCs via
// set families, followed by hole detection that compares the found minimal UCCs
// with the minimal hitting sets of the complements of the found maximal
// non-UCCs.
//
// Uniqueness of a column combination is a monotone lattice predicate, so the
// traversal is delegated to the generic walker shared with MUDS' R\Z phase.
// The seed fixes the randomized traversal order; results are independent of
// it (verified by property tests), only the visit order varies.
func Ducc(p *pli.Provider, seed int64) Result {
	res, _ := DuccContext(context.Background(), p, seed)
	return res
}

// DuccContext runs DUCC under a context: the random walk polls ctx between
// uniqueness checks and stops promptly when ctx is cancelled or its deadline
// passes, returning the partial result together with ctx.Err(). On a non-nil
// error the result is progress information, not a complete (or even minimal)
// UCC cover.
func DuccContext(ctx context.Context, p *pli.Provider, seed int64) (Result, error) {
	return DuccSeeded(ctx, p, seed, nil, nil)
}

// DuccSeeded is DuccContext with pre-certified lattice knowledge: knownTrue
// sets are trusted unique, knownFalse sets trusted non-unique, and neither is
// re-evaluated. It is the repair entry point of incremental profiling — after
// an appended batch, the still-valid prior UCCs enter as knownTrue and the
// violated ones (plus the prior maximal non-uniques, still false by
// monotonicity) as knownFalse, so the walk only explores the invalidated
// lattice region above the violations.
func DuccSeeded(ctx context.Context, p *pli.Provider, seed int64, knownTrue, knownFalse []bitset.Set) (Result, error) {
	base := p.Relation().AllColumns()
	res, err := walker.RunContext(ctx, base, p.UniqueWalk().Check, walker.Options{
		Seed:       seed,
		KnownTrue:  knownTrue,
		KnownFalse: knownFalse,
	})
	return Result{
		Minimal:          res.MinimalTrue,
		MaximalNonUnique: res.MaximalFalse,
		Checks:           res.Checks,
	}, err
}
