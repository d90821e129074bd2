package fd

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/pli"
	"holistic/internal/walker"
)

// RepairRHS re-discovers the minimal FDs with right-hand side rhs after an
// appended batch invalidated some prior left-hand sides. "X → rhs" is a
// monotone predicate in X, so the generic lattice walker applies; the repair
// seeds it with everything the prior result still certifies:
//
//   - knownTrue: the prior minimal LHSs that revalidated on the extended
//     relation. They are still minimal — their proper subsets were violated
//     before the append, and appended rows never repair a violated FD.
//   - knownFalse: the violated prior LHSs, plus the prior maximal non-FD
//     sets, reconstructed by hitting-set duality from the full prior minimal
//     LHS family: base \ h for each minimal hitting set h of the prior LHSs.
//     Both remain false by the same monotonicity.
//
// base must exclude rhs and the constant columns of the extended relation. It
// may properly contain the prior walk's base: columns that were constant
// before the batch and became non-constant enter the lattice here, and the
// duality certificates stay sound over the grown base — while such a column A
// was constant, X ∪ {A} → rhs held iff X → rhs, so any set whose restriction
// to the old base missed every prior LHS was false before the batch and is
// still false now. oldLHSs is the complete prior minimal LHS family ({∅} for
// a previously constant rhs, empty when no FD with this rhs held). The
// returned sets are the complete minimal LHS family for rhs over base, plus
// the predicate-evaluation count.
func RepairRHS(ctx context.Context, p *pli.Provider, base bitset.Set, rhs int, valid, violated []bitset.Set, oldLHSs []bitset.Set, seed int64) ([]bitset.Set, int, error) {
	knownFalse := append([]bitset.Set(nil), violated...)
	hits, err := walker.MinimalHittingSets(ctx, oldLHSs, base)
	if err != nil {
		return nil, 0, err
	}
	for _, h := range hits {
		knownFalse = append(knownFalse, base.Diff(h))
	}
	res, err := walker.RunContext(ctx, base, p.FDWalk(rhs).Check,
		walker.Options{Seed: seed, KnownTrue: valid, KnownFalse: knownFalse})
	return res.MinimalTrue, res.Checks, err
}
