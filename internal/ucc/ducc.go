package ucc

import (
	"context"

	"holistic/internal/pli"
	"holistic/internal/walker"
)

// DuccContext discovers all minimal UCCs with the DUCC strategy (paper
// Sec. 2.2): a randomized walk over the lattice that descends from uniques
// and ascends from non-uniques, pruning supersets of UCCs and subsets of
// non-UCCs via set families, followed by hole detection that compares the
// found minimal UCCs with the minimal hitting sets of the complements of the
// found maximal non-UCCs.
//
// Uniqueness of a column combination is a monotone lattice predicate, so the
// traversal is delegated to the generic walker shared with MUDS' FD walks
// and the incremental repair, which seeds the same walk with the
// certificates a prior result still holds.
// The seed fixes the randomized traversal order; results are independent of
// it (verified by property tests), only the visit order varies.
//
// The walk polls ctx between uniqueness checks and stops promptly when ctx
// is cancelled or its deadline passes, returning the partial result together
// with ctx.Err(). On a non-nil error the result is progress information, not
// a complete (or even minimal) UCC cover.
func DuccContext(ctx context.Context, p *pli.Provider, seed int64) (Result, error) {
	res, err := walker.RunContext(ctx, p.Relation().AllColumns(), p.UniqueWalk().Check, walker.Options{Seed: seed})
	return Result{
		Minimal:          res.MinimalTrue,
		MaximalNonUnique: res.MaximalFalse,
		Checks:           res.Checks,
	}, err
}
