package core

// completionSweep discovers all minimal FDs with right-hand side in Z. It
// replaces the paper's remaining FD phases: minimizeFDs (Algorithm 1) and
// the shadowed-FD phases (Algorithms 2–4).
//
// Algorithm 2 derives shadowed left-hand-side candidates only from unions
// of already-discovered FDs; minimal FDs whose left-hand side mixes columns
// of several minimal UCCs can stay invisible even when the generation runs
// to a fixpoint (our property tests construct such relations). A lattice
// walk per right-hand side in Z — the same machinery as the R\Z phase —
// finds the complete minimal cover by itself. The minimal UCCs keep the
// walks holistic: pruning rules 1 and 2 seed every walk with false
// certificates before it touches the data (see falseSeeds), and the walks
// answer their checks from the PLI provider DUCC filled.
//
// As in the R\Z phase, a walk for right-hand side a emits only a's FDs,
// which no other walk's certificates or predicate values depend on, so the
// walks fan out across the worker pool.
func (m *mudsFD) completionSweep() {
	m.walkAll(m.z.Columns(), m.falseSeeds)
}
