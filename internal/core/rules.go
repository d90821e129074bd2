package core

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/fd"
	"holistic/internal/parallel"
	"holistic/internal/pli"
)

// mudsFD is the state of MUDS' FD discovery part (paper Sec. 5): the shared
// PLI provider handed over from DUCC, the minimal UCCs that decide R \ Z and
// seed the walks with pruning rules 1 and 2 (Sec. 4), and the FD result
// store.
type mudsFD struct {
	// ctx governs cancellation: the worker pool and every walk poll it and
	// stop early when it is done, so a deadline stops the run at the
	// granularity of one walk step.
	ctx     context.Context
	p       *pli.Provider
	working bitset.Set   // non-constant columns
	uccs    []bitset.Set // the minimal UCCs
	z       bitset.Set   // union of all minimal UCCs (Sec. 4)
	store   *fd.Store
	checks  int
	seed    int64

	// workers bounds the worker pool of the per-RHS walks; <= 0 selects
	// GOMAXPROCS.
	workers int
}

func newMudsFD(p *pli.Provider, working bitset.Set, minimalUCCs []bitset.Set, store *fd.Store, seed int64) *mudsFD {
	m := &mudsFD{
		ctx:     context.Background(),
		p:       p,
		working: working,
		uccs:    minimalUCCs,
		store:   store,
		seed:    seed,
	}
	for _, u := range minimalUCCs {
		m.z = m.z.Union(u)
	}
	return m
}

// workerCount resolves the effective pool width for the walk phases.
func (m *mudsFD) workerCount() int { return parallel.Workers(m.workers) }

// run adapts a phase method to timePhase's signature: the phase runs to its
// internal cancellation checks, and the context error (if any) is what the
// engine reports.
func (m *mudsFD) run(phase func()) func() error {
	return func() error {
		phase()
		return m.ctx.Err()
	}
}

// rzColumns returns R \ Z: the working columns in no minimal UCC. By pruning
// rule 2 of Sec. 4, no subset of R \ Z can determine a column of Z.
func (m *mudsFD) rzColumns() bitset.Set {
	return m.working.Diff(m.z)
}

// falseSeeds returns the false certificates that pruning rules 1 and 2 of
// Sec. 4 give a right-hand side a in Z before any data check:
//
//   - rule 2: no subset of R \ Z determines a;
//   - rule 1: for every minimal UCC V containing a, no subset of V \ {a}
//     determines a (an FD inside a minimal UCC would contradict its
//     minimality).
func (m *mudsFD) falseSeeds(a int) []bitset.Set {
	var seeds []bitset.Set
	if rz := m.rzColumns(); !rz.IsEmpty() {
		seeds = append(seeds, rz)
	}
	for _, v := range m.uccs {
		if sub := v.Without(a); v.Has(a) && !sub.IsEmpty() {
			seeds = append(seeds, sub)
		}
	}
	return seeds
}
