package core

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/fd"
	"holistic/internal/parallel"
	"holistic/internal/pli"
	"holistic/internal/settrie"
)

// mudsFD is the state of MUDS' FD discovery part (paper Sec. 5): the shared
// PLI provider handed over from DUCC, the minimal UCCs as a set family for
// subset pruning (Sec. 5.4) and connector look-ups (Sec. 5.1), and the FD
// result store with per-rhs minimal-lhs families.
type mudsFD struct {
	// ctx governs cancellation: every task-queue loop of the FD phases polls
	// it (via aborted) and drains early when it is done, so a deadline stops
	// the run at the granularity of one minimisation task.
	ctx     context.Context
	p       *pli.Provider
	working bitset.Set // non-constant columns
	uccs    settrie.MinimalFamily
	z       bitset.Set // union of all minimal UCCs (Sec. 4)
	store   *fd.Store
	// perRHS[a] holds the minimal left-hand sides emitted for right-hand
	// side a.
	perRHS []settrie.MinimalFamily
	// falseRHS[a] collects the left-hand sides proven NOT to determine a
	// (maximal certificates). Every failed data check in any phase lands
	// here and prunes later checks: by Lemma 4 a subset of a failed
	// left-hand side fails too. The completion sweep seeds its walks from
	// these families, so boundary work is never repeated.
	falseRHS []settrie.MaximalFamily
	checks   int
	seed     int64

	// shadowSeen dedups generated shadow candidates and shadowProcessed
	// dedups minimisation work across the fixpoint rounds of the shadowed
	// phase (lhs → rhs attributes already handled).
	shadowSeen      map[bitset.Set]bitset.Set
	shadowProcessed map[bitset.Set]bitset.Set
	removeUCCCache  map[bitset.Set][]bitset.Set
	// changed collects the left-hand sides whose stored right-hand sides
	// changed since the last shadowed-FD generation round: every emitted
	// left-hand side and every superset an emission removes. Each round
	// takes and resets it (see generateShadowedTasks).
	changed map[bitset.Set]bool

	// uccUnions memoises uccUnion while minimizeFDs runs and is nil
	// otherwise.
	uccUnions map[bitset.Set]bitset.Set

	// workers bounds the worker pool of the per-RHS walk phases
	// (calculateRZ, completionSweep); <= 0 selects GOMAXPROCS. The task
	// queues of the other phases stay sequential regardless.
	workers int
}

func newMudsFD(p *pli.Provider, working bitset.Set, minimalUCCs []bitset.Set, store *fd.Store, seed int64) *mudsFD {
	m := &mudsFD{
		ctx:             context.Background(),
		p:               p,
		working:         working,
		store:           store,
		perRHS:          make([]settrie.MinimalFamily, working.Last()+1),
		falseRHS:        make([]settrie.MaximalFamily, working.Last()+1),
		seed:            seed,
		shadowSeen:      make(map[bitset.Set]bitset.Set),
		shadowProcessed: make(map[bitset.Set]bitset.Set),
		removeUCCCache:  make(map[bitset.Set][]bitset.Set),
		changed:         make(map[bitset.Set]bool),
	}
	for _, u := range minimalUCCs {
		m.uccs.Add(u)
	}
	m.z = m.uccs.UnionOfSupersetsOf(bitset.Set{})
	return m
}

// aborted reports whether the run's context is done; the FD-phase loops poll
// it between tasks and drain early when it is.
func (m *mudsFD) aborted() bool { return m.ctx.Err() != nil }

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

// emit records the verified-minimal FD lhs → a, deduplicating against
// earlier emissions. A defensive guard removes any stored superset left
// behind if a smaller left-hand side arrives late. Every left-hand side
// whose stored right-hand sides change is marked in m.changed.
func (m *mudsFD) emit(lhs bitset.Set, a int) {
	fam := &m.perRHS[a]
	if fam.CoversSubsetOf(lhs) {
		return // already stored, or a smaller lhs is known
	}
	for _, sup := range fam.SupersetsOf(lhs) {
		m.store.Remove(sup, a)
		m.changed[sup] = true
	}
	fam.Add(lhs)
	m.store.Add(lhs, a)
	m.changed[lhs] = true
}

// knownValid reports whether lhs → a follows from already-emitted FDs.
func (m *mudsFD) knownValid(lhs bitset.Set, a int) bool {
	return m.perRHS[a].CoversSubsetOf(lhs)
}

// knownInvalid reports whether lhs → a is refuted by a recorded failure:
// lhs ⊆ X with X ↛ a implies lhs ↛ a (Lemma 4).
func (m *mudsFD) knownInvalid(lhs bitset.Set, a int) bool {
	return m.falseRHS[a].CoversSupersetOf(lhs)
}

// resolveFD decides lhs → a, consulting certificates before touching PLIs.
func (m *mudsFD) resolveFD(lhs bitset.Set, a int) bool {
	if lhs.Has(a) {
		return true
	}
	if m.knownValid(lhs, a) {
		return true
	}
	if m.knownInvalid(lhs, a) {
		return false
	}
	m.checks++
	// Non-materializing fast path: the provider folds lhs's missing columns
	// over the cheapest cached ancestor instead of building lhs's PLI.
	if m.p.CheckFD(lhs, a) {
		return true
	}
	m.falseRHS[a].Add(lhs)
	return false
}

// checkFDs validates lhs → a for every a ∈ rhs in one pass over lhs's PLI
// (skipping attributes already implied by emitted FDs) and returns the valid
// subset.
func (m *mudsFD) checkFDs(lhs bitset.Set, rhs bitset.Set) bitset.Set {
	valid := bitset.Set{}
	todo := bitset.Set{}
	for a := rhs.First(); a >= 0; a = rhs.NextAfter(a) {
		switch {
		case lhs.Has(a):
			valid = valid.With(a)
		case m.knownValid(lhs, a):
			valid = valid.With(a)
		case m.knownInvalid(lhs, a):
			// refuted by a recorded failure; skip the data check
		default:
			todo = todo.With(a)
		}
	}
	if !todo.IsEmpty() {
		m.checks += todo.Len()
		checked := m.p.CheckFDs(lhs, todo)
		valid = valid.Union(checked)
		failed := todo.Diff(checked)
		for a := failed.First(); a >= 0; a = failed.NextAfter(a) {
			m.falseRHS[a].Add(lhs)
		}
	}
	return valid
}

// connectorLookup implements the look-up of paper Sec. 5.1 (Table 2): the
// union of all minimal UCCs that are supersets of the connector, minus the
// connector itself. The resulting columns are the right-hand-side candidates
// reachable from left-hand sides that connect to the given connector.
func (m *mudsFD) connectorLookup(connector bitset.Set) bitset.Set {
	return m.uccUnion(connector).Diff(connector)
}

// impossibleColumns implements pruning rule 1 of paper Sec. 4: an FD cannot
// exist if it is fully contained in a minimal UCC. For a left-hand side lhs
// the impossible right-hand sides are the columns a with lhs ∪ {a} inside
// some minimal UCC, i.e. the union of the minimal UCCs containing lhs.
func (m *mudsFD) impossibleColumns(lhs bitset.Set) bitset.Set {
	return m.uccUnion(lhs).Diff(lhs)
}

// uccUnion returns the union of the minimal UCCs containing x, through the
// memo m.uccUnions when minimizeFDs has set one up. The minimal UCCs do not
// change during the FD phases, so a memoised union stays exact.
func (m *mudsFD) uccUnion(x bitset.Set) bitset.Set {
	if m.uccUnions == nil {
		return m.uccs.UnionOfSupersetsOf(x)
	}
	u, ok := m.uccUnions[x]
	if !ok {
		u = m.uccs.UnionOfSupersetsOf(x)
		m.uccUnions[x] = u
	}
	return u
}

// rzColumns returns R \ Z: the working columns in no minimal UCC. By pruning
// rule 2 of Sec. 4, no subset of R \ Z can determine a column of Z.
func (m *mudsFD) rzColumns() bitset.Set {
	return m.working.Diff(m.z)
}
