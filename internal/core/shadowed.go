package core

import (
	"holistic/internal/bitset"
	"holistic/internal/settrie"
)

// This file implements the third FD phase of MUDS (paper Secs. 4.3 and 5.3):
// shadowed FDs. Left-hand sides that mix columns of several minimal UCCs (or
// of R \ Z) are never proposed by the connector look-up; they are recovered
// by extending the left-hand sides of already-discovered FDs with the
// attributes their sub-connectors determine (Algorithm 2), stripping
// UCC-contained parts (Algorithm 3), and minimising the resulting candidates
// top-down (Algorithm 4).
//
// The paper runs one generation pass; we iterate generation + minimisation
// until no new FD appears, because freshly minimised FDs can expose further
// shadowed left-hand sides. The fixpoint is a strict superset of the single
// pass and is required for completeness (verified against a brute-force
// oracle by the property tests). A round after the first regenerates only
// what the FDs emitted or removed since the previous round can add, with
// the same tasks as a full regeneration (see generateShadowedTasks).

// shadowTask is one (left-hand side, right-hand sides) minimisation task.
type shadowTask struct {
	lhs bitset.Set
	rhs bitset.Set
}

// generateShadowedTasks implements Algorithm 2: derive candidate shadowed
// left-hand sides from every known FD and validate them immediately ("each
// task immediately checks if the FD holds", Sec. 6.4). Only tasks with at
// least one validated right-hand side survive.
//
// Algorithm 2 iterates over all subsets of every left-hand side flhs and
// looks up FDs[connector]; only connectors that are themselves stored
// left-hand sides contribute shadowed attributes, so the subset enumeration
// is served by a set index over the stored left-hand sides (Sec. 5.4) —
// same semantics, without enumerating 2^|lhs| empty look-ups.
//
// Rounds after the first run semi-naively. A pair (flhs, connector) where
// the stored right-hand sides of neither left-hand side changed since the
// previous round contributes the same candidates it contributed then, and
// shadowSeen already holds all of them. So a changed flhs pairs with every
// stored connector, an unchanged one only with the changed connectors; the
// tasks and checks are those of a full regeneration. In the first round every
// stored left-hand side is changed, since all of them arrived through emit
// (the constant columns' ∅ aside, which never contributes).
func (m *mudsFD) generateShadowedTasks() []shadowTask {
	changed := m.changed
	m.changed = make(map[bitset.Set]bool)
	lhss := m.store.LHSs()
	var all, fresh settrie.Index
	for _, lhs := range lhss {
		all.Add(lhs)
		if changed[lhs] {
			fresh.Add(lhs)
		}
	}
	targets := make(map[bitset.Set]bitset.Set)
	for _, flhs := range lhss {
		if m.aborted() {
			return nil
		}
		connectors := &fresh
		if changed[flhs] {
			connectors = &all
		}
		m.addShadowTargets(targets, flhs, connectors)
	}
	return m.shadowTasks(targets)
}

// addShadowTargets pairs the stored FD flhs → FDs[flhs] with every
// connector of the index inside flhs and records each extended left-hand
// side with the right-hand sides to minimise there. Many pairs produce the
// same extended left-hand side, so targets collects the distinct ones with
// the union of their right-hand sides, and the expensive UCC-stripping runs
// once per distinct set.
func (m *mudsFD) addShadowTargets(targets map[bitset.Set]bitset.Set, flhs bitset.Set, connectors *settrie.Index) {
	if flhs.IsEmpty() {
		return // constant columns shadow nothing
	}
	frhs := m.store.RHS(flhs)
	for _, connector := range connectors.SubsetsOf(flhs) {
		shadowedRhs := m.store.RHS(connector)
		// Constant columns never belong to a minimal left-hand side.
		newLhs := flhs.Union(shadowedRhs).Intersect(m.working)
		if newLhs == flhs {
			continue // nothing shadowed; flhs is already minimised
		}
		targets[newLhs] = targets[newLhs].Union(frhs)
	}
}

// shadowTasks strips the minimal UCCs from every extended left-hand side
// (Algorithm 3), merges the candidates per reduced left-hand side and
// validates the right-hand sides no earlier round generated there.
func (m *mudsFD) shadowTasks(targets map[bitset.Set]bitset.Set) []shadowTask {
	merged := make(map[bitset.Set]bitset.Set) // candidate lhs → rhs attrs to minimise
	newLhss := make([]bitset.Set, 0, len(targets))
	for lhs := range targets {
		newLhss = append(newLhss, lhs)
	}
	bitset.Sort(newLhss)
	for _, newLhs := range newLhss {
		if m.aborted() {
			return nil
		}
		frhs := targets[newLhs]
		for _, reduced := range m.removeUCCsCached(newLhs) {
			for a := frhs.First(); a >= 0; a = frhs.NextAfter(a) {
				lhs := reduced.Without(a)
				if lhs.IsEmpty() {
					continue
				}
				merged[lhs] = merged[lhs].With(a)
			}
		}
	}

	var tasks []shadowTask
	lhss := make([]bitset.Set, 0, len(merged))
	for lhs := range merged {
		lhss = append(lhss, lhs)
	}
	bitset.Sort(lhss)
	for _, lhs := range lhss {
		if m.aborted() {
			return tasks
		}
		rhs := merged[lhs].Diff(lhs).Diff(m.shadowSeen[lhs])
		if rhs.IsEmpty() {
			continue // candidate already generated in an earlier round
		}
		m.shadowSeen[lhs] = m.shadowSeen[lhs].Union(rhs)
		valid := m.checkFDs(lhs, rhs)
		if !valid.IsEmpty() {
			tasks = append(tasks, shadowTask{lhs: lhs, rhs: valid})
		}
	}
	return tasks
}

// removeUCCBranchLimit bounds the branch-and-strip enumeration of
// Algorithm 3. Left-hand sides of shadow candidates can contain hundreds of
// minimal UCCs on key-dense datasets, making the exact enumeration
// exponential; the shadowed phase only *seeds* the completion sweep, so a
// bounded (deterministic) enumeration sacrifices no correctness.
const removeUCCBranchLimit = 2048

// removeUCCsCached memoises removeUCCs per left-hand side; the minimal UCCs
// never change during the FD part, so cached results stay valid across the
// fixpoint rounds.
func (m *mudsFD) removeUCCsCached(lhs bitset.Set) []bitset.Set {
	if cached, ok := m.removeUCCCache[lhs]; ok {
		return cached
	}
	out := m.removeUCCs(lhs)
	m.removeUCCCache[lhs] = out
	return out
}

// removeUCCs implements Algorithm 3: split a left-hand side into the maximal
// reduced left-hand sides that contain no complete minimal UCC (a left-hand
// side containing a UCC can never yield a minimal FD). For every contained
// UCC one of its columns must be dropped; the branching enumerates the
// alternatives, bounded by removeUCCBranchLimit expansions.
func (m *mudsFD) removeUCCs(lhs bitset.Set) []bitset.Set {
	contained := m.uccs.SubsetsOf(lhs)
	if len(contained) == 0 {
		return []bitset.Set{lhs}
	}
	var acc settrie.MaximalFamily
	type task struct {
		pos     int
		removed bitset.Set
	}
	queue := []task{{}}
	budget := removeUCCBranchLimit
	for len(queue) > 0 && budget > 0 {
		budget--
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if t.pos >= len(contained) {
			acc.Add(lhs.Diff(t.removed))
			continue
		}
		u := contained[t.pos]
		if t.removed.Intersects(u) {
			// This UCC is already broken by an earlier removal.
			queue = append(queue, task{pos: t.pos + 1, removed: t.removed})
			continue
		}
		for c := u.First(); c >= 0; c = u.NextAfter(c) {
			queue = append(queue, task{pos: t.pos + 1, removed: t.removed.With(c)})
		}
	}
	out := acc.All()
	bitset.Sort(out)
	return out
}

// minimizeShadowed implements Algorithm 4: top-down minimisation of the
// validated shadow tasks. Every direct subset is checked for every pending
// right-hand side, so the emitted FDs are verified minimal by construction.
func (m *mudsFD) minimizeShadowed(tasks []shadowTask) {
	queue := tasks
	for len(queue) > 0 {
		if m.aborted() {
			return
		}
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		newRhs := t.rhs.Diff(m.shadowProcessed[t.lhs])
		if newRhs.IsEmpty() {
			continue
		}
		m.shadowProcessed[t.lhs] = m.shadowProcessed[t.lhs].Union(newRhs)

		currentRhs := newRhs
		for _, s := range directNonEmptySubsets(t.lhs) {
			valid := m.checkFDs(s, newRhs)
			currentRhs = currentRhs.Diff(valid)
			if !valid.IsEmpty() {
				queue = append(queue, shadowTask{lhs: s, rhs: valid})
			}
		}
		for a := currentRhs.First(); a >= 0; a = currentRhs.NextAfter(a) {
			m.emit(t.lhs, a)
		}
	}
}
