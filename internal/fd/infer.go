package fd

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/walker"
)

// This file implements FD inference: attribute-set closures over a set of
// FDs and the derivation of minimal UCCs from minimal FDs (Lemma 2 of the
// paper: on a duplicate-free relation, every attribute set that determines
// all other attributes is a key). It powers the "FDs first" holistic
// strategy the paper discusses in Sec. 3.1 — discover FDs once, then infer
// the minimal UCCs without touching the data again.

// Closure computes the attribute closure of x under the stored FDs: the
// largest set Y ⊇ x with x → Y. Standard fixpoint iteration; the Store's
// lhs → rhs-set representation makes each round a subset scan.
func (s *Store) Closure(x bitset.Set) bitset.Set {
	closure := x
	for {
		grew := false
		for lhs, rhs := range s.byLHS {
			if !rhs.IsSubsetOf(closure) && lhs.IsSubsetOf(closure) {
				closure = closure.Union(rhs)
				grew = true
			}
		}
		if !grew {
			return closure
		}
	}
}

// DeriveUCCsContext computes all minimal UCCs of a duplicate-free relation
// over the columns `all` from its complete set of minimal FDs (Lemma 2): U is
// a key iff closure(U) = R. "closure(U) = R" is a monotone lattice predicate,
// so the shared walker enumerates exactly the minimal keys — with no data
// access at all. This realises the "FDs first" approach of paper Sec. 3.1
// (which the paper rejects for its extra inference cost; the cost is
// measurable with this implementation).
//
// The key walk polls ctx between closure evaluations and stops promptly on
// cancellation, returning the partial key list together with ctx.Err().
func (s *Store) DeriveUCCsContext(ctx context.Context, all bitset.Set, seed int64) ([]bitset.Set, error) {
	full := all
	pred := func(u bitset.Set) bool {
		return s.Closure(u).IsSupersetOf(full)
	}
	res, err := walker.RunContext(ctx, all, pred, walker.Options{Seed: seed})
	return res.MinimalTrue, err
}
