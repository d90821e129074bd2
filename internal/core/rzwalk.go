package core

import (
	"holistic/internal/bitset"
	"holistic/internal/parallel"
	"holistic/internal/walker"
)

// This file implements the per-RHS lattice walks of MUDS' FD part, first
// for the phase of paper Secs. 4.2 and 5.2: FDs whose right-hand side lies
// in R \ Z, the columns outside every minimal UCC. The completion sweep
// (sweep.go) walks the right-hand sides in Z with the same machinery. For
// each right-hand side A one sub-lattice over R \ {A}
// is traversed with the DUCC-style random walk; "X determines A" is a
// monotone predicate, so downward pruning of non-FDs (Lemma 4) and upward
// pruning of supersets of found left-hand sides both apply, and unvisited
// holes are filled by the hitting-set duality — all provided by the shared
// lattice walker.
//
// The walks of different right-hand sides are independent: each one reads
// the shared PLI provider (concurrency-safe when the engine runs with
// workers > 1) and the minimal UCCs its certificates derive from, and
// answers its checks through a pli.Walk of its own, which holds the PLI of
// the node the walk stands on (see the pli.Walk doc). Each walk therefore
// runs as one worker-pool task writing its outcome into an indexed slot;
// the FDs are stored in right-hand-side order after the pool drains, so
// the discovered FD set is identical for every worker count.

// calculateRZ discovers all minimal FDs with right-hand side in R \ Z. The
// rules of Sec. 4 give these walks no certificates: their right-hand sides
// lie in no minimal UCC.
func (m *mudsFD) calculateRZ() {
	m.walkAll(m.rzColumns().Columns(), nil)
}

// walkAll runs one walk per right-hand side in cols, seeded with the false
// certificates seeds returns for it (none when seeds is nil), as one
// worker-pool task each, and stores the walks' minimal left-hand sides in
// the order of cols. Each right-hand side is walked once, and its walk
// yields an antichain, so every stored FD is minimal.
func (m *mudsFD) walkAll(cols []int, seeds func(a int) []bitset.Set) {
	walks := make([]walkOutcome, len(cols))
	parallel.For(m.ctx, m.workerCount(), len(cols), func(i int) {
		var knownFalse []bitset.Set
		if seeds != nil {
			knownFalse = seeds(cols[i])
		}
		walks[i] = m.walkRHS(cols[i], knownFalse)
	})
	for i, a := range cols {
		m.checks += walks[i].checks
		for _, lhs := range walks[i].minimal {
			m.store.Add(lhs, a)
		}
	}
}

// walkOutcome is the result of one per-RHS sub-lattice walk, produced by a
// worker-pool task and applied to the shared state in RHS order afterwards.
type walkOutcome struct {
	minimal []bitset.Set // verified-minimal left-hand sides (nil on error)
	checks  int
}

// walkRHS runs the sub-lattice walk for one right-hand side and returns the
// minimal left-hand sides found. knownFalse seeds the walk with false
// certificates. A cancelled walk may report non-minimal left-hand sides;
// they are discarded rather than emitted as unverified FDs into the partial
// result. It only reads shared state, so walks of distinct right-hand sides
// may run concurrently.
func (m *mudsFD) walkRHS(a int, knownFalse []bitset.Set) walkOutcome {
	base := m.working.Without(a)
	res, err := walker.RunContext(m.ctx, base, m.p.FDWalk(a).Check, walker.Options{
		Seed:       m.seed + int64(a)*7919,
		KnownFalse: knownFalse,
	})
	out := walkOutcome{checks: res.Checks}
	if err == nil {
		out.minimal = res.MinimalTrue
	}
	return out
}
