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

// fdPair is one stored entry of a Store: lhs → every column of rhs.
type fdPair struct{ lhs, rhs bitset.Set }

// closure computes the attribute closure of x under pairs — the largest set
// Y ⊇ x with x → Y — by fixpoint iteration, and returns as soon as it covers
// all. It works on work, a caller-owned buffer of len(pairs) that it
// overwrites, and each round drops the pairs it applied and those that add
// nothing, so later rounds rescan only pairs that may still fire.
func closure(pairs, work []fdPair, x, all bitset.Set) bitset.Set {
	work = work[:copy(work, pairs)]
	for !x.IsSupersetOf(all) {
		kept, grew := work[:0], false
		for _, p := range work {
			switch {
			case p.rhs.IsSubsetOf(x): // adds nothing: drop
			case p.lhs.IsSubsetOf(x): // applies: grow x, drop
				x, grew = x.Union(p.rhs), true
			default:
				kept = append(kept, p)
			}
		}
		if !grew {
			break
		}
		work = kept
	}
	return x
}

// DeriveUCCsContext computes all minimal UCCs of a duplicate-free relation
// over the columns `all` from its complete set of minimal FDs (Lemma 2): U is
// a key iff closure(U) = R. "closure(U) = R" is a monotone lattice predicate,
// so the shared walker enumerates exactly the minimal keys — with no data
// access at all. This realises the "FDs first" approach of paper Sec. 3.1
// (which the paper rejects for its extra inference cost; the cost is
// measurable with this implementation). The stored FDs are copied into one
// slice up front, which every closure then scans.
//
// The key walk polls ctx between closure evaluations and stops promptly on
// cancellation, returning the partial key list together with ctx.Err().
func (s *Store) DeriveUCCsContext(ctx context.Context, all bitset.Set, seed int64) ([]bitset.Set, error) {
	pairs := s.pairs()
	work := make([]fdPair, len(pairs))
	pred := func(u bitset.Set) bool {
		return closure(pairs, work, u, all).IsSupersetOf(all)
	}
	res, err := walker.RunContext(ctx, all, pred, walker.Options{Seed: seed})
	return res.MinimalTrue, err
}

// pairs copies the stored entries into a slice.
func (s *Store) pairs() []fdPair {
	out := make([]fdPair, 0, len(s.byLHS))
	for lhs, rhs := range s.byLHS {
		out = append(out, fdPair{lhs, rhs})
	}
	return out
}
