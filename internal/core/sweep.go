package core

import (
	"holistic/internal/bitset"
	"holistic/internal/parallel"
)

// completionSweep closes the completeness gap left by the shadowed-FD phase.
//
// Algorithm 2 of the paper derives shadowed left-hand-side candidates only
// from unions of already-discovered FDs; minimal FDs whose left-hand side
// mixes columns of several minimal UCCs can stay invisible even when the
// generation runs to a fixpoint (our property tests construct such
// relations). To guarantee the complete minimal cover, MUDS finishes with
// one certificate-seeded sub-lattice walk per right-hand side in Z — the
// same machinery as the R\Z phase, but primed with everything the earlier
// phases proved:
//
//   - true certificates: every minimal left-hand side already found for the
//     right-hand side (upward pruning);
//   - false certificates from pruning rule 1: for every minimal UCC V
//     containing the right-hand side a, no subset of V\{a} determines a
//     (an FD inside a minimal UCC would contradict its minimality);
//   - false certificates from pruning rule 2: no subset of R\Z determines
//     a column of Z.
//
// When the earlier phases already found everything (the common case), the
// walk only certifies the boundary below the known left-hand sides.
//
// The per-RHS walks are independent — a walk for right-hand side a emits
// only a's FDs, which no other walk's certificates or predicate depend on —
// so they fan out across the worker pool. Certificate seeds are collected
// first, each walk writes its outcome into an indexed slot, and the
// emissions are applied in RHS order, keeping the result identical for
// every worker count.
func (m *mudsFD) completionSweep() {
	rz := m.rzColumns()
	zCols := m.z.Columns()
	trueSeeds := make([][]bitset.Set, len(zCols))
	falseSeeds := make([][]bitset.Set, len(zCols))
	for i, a := range zCols {
		if m.aborted() {
			return
		}
		knownTrue := m.perRHS[a].All()

		var knownFalse []bitset.Set
		if !rz.IsEmpty() {
			knownFalse = append(knownFalse, rz) // rule 2
		}
		for _, v := range m.uccs.SupersetsOf(bitset.Single(a)) {
			if sub := v.Without(a); !sub.IsEmpty() {
				knownFalse = append(knownFalse, sub) // rule 1
			}
		}
		// Minimality of the emitted FDs was verified against the data, so
		// every direct subset of a known left-hand side is a certified
		// non-FD — free false certificates that let the walk confirm the
		// boundary without re-touching PLIs.
		for _, lhs := range knownTrue {
			for _, sub := range lhs.DirectSubsets() {
				if !sub.IsEmpty() {
					knownFalse = append(knownFalse, sub)
				}
			}
		}
		// Recycle every failure certificate the earlier phases recorded.
		knownFalse = append(knownFalse, m.falseRHS[a].All()...)

		trueSeeds[i] = knownTrue
		falseSeeds[i] = knownFalse
	}

	walks := make([]walkOutcome, len(zCols))
	parallel.For(m.ctx, m.workerCount(), len(zCols), func(i int) {
		walks[i] = m.walkRHS(zCols[i], trueSeeds[i], falseSeeds[i])
	})
	for i, a := range zCols {
		m.applyWalk(a, walks[i])
	}
}
