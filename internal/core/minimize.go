package core

import (
	"holistic/internal/bitset"
)

// This file implements the first FD phase of MUDS (paper Sec. 5.1,
// Algorithm 1): deducing FDs from the minimal UCCs and minimising their
// left-hand sides top-down, guided by connector look-ups.
//
// One extension over the paper's pseudocode: before a right-hand side is
// emitted at a node, its minimality is verified against every direct subset
// (consulting known FDs first, then the data). When a subset turns out to
// determine the attribute even though the connector look-up did not propose
// it, a continuation task is queued instead of emitting — this "healing"
// step makes the phase provably complete for every minimal FD whose
// left-hand side lies inside a minimal UCC, without changing the phase's
// search strategy.

// uccTask is a minimisation task of Algorithm 1.
type uccTask struct {
	lhs  bitset.Set
	rhs  bitset.Set
	mUcc bitset.Set
}

// minimizeFDs discovers all minimal FDs whose left-hand side is a subset of
// a minimal UCC and whose right-hand side belongs to Z.
func (m *mudsFD) minimizeFDs() {
	// Every visit looks up the UCC unions of its direct subsets and their
	// connectors, and the same sets recur across visits: memoise them for
	// the phase.
	m.uccUnions = make(map[bitset.Set]bitset.Set)
	defer func() { m.uccUnions = nil }()

	type key struct{ lhs, mUcc bitset.Set }
	processed := make(map[key]bitset.Set)

	var queue []uccTask
	push := func(t uccTask) {
		if t.rhs.IsEmpty() {
			return
		}
		queue = append(queue, t)
	}

	for _, u := range m.uccs.All() {
		push(uccTask{lhs: u, rhs: m.z.Diff(u), mUcc: u})
	}

	for len(queue) > 0 {
		if m.aborted() {
			return
		}
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		k := key{t.lhs, t.mUcc}
		newRhs := t.rhs.Diff(processed[k])
		if newRhs.IsEmpty() {
			continue
		}
		processed[k] = processed[k].Union(newRhs)

		currentRhs := newRhs
		subsets := directNonEmptySubsets(t.lhs)
		// proposed[i] records which attributes the connector look-up offered
		// for subsets[i]; attributes offered but not validated are known
		// invalid there, which the emission verification exploits.
		proposed := make([]bitset.Set, len(subsets))

		for i, s := range subsets {
			connector := t.mUcc.Diff(s)
			potential := m.connectorLookup(connector)
			potential = potential.Diff(s)
			potential = potential.Diff(m.impossibleColumns(s))
			potential = potential.Intersect(newRhs)
			proposed[i] = potential
			if potential.IsEmpty() {
				continue
			}
			valid := m.checkFDs(s, potential)
			currentRhs = currentRhs.Diff(valid)
			push(uccTask{lhs: s, rhs: valid, mUcc: t.mUcc})
		}

		// Emission with minimality verification (healing).
		for a := currentRhs.First(); a >= 0; a = currentRhs.NextAfter(a) {
			minimal := true
			for i, s := range subsets {
				if proposed[i].Has(a) {
					continue // checked above and found invalid at s
				}
				if m.resolveFD(s, a) {
					// The look-up missed a valid subset; continue minimising
					// there instead of emitting a non-minimal FD.
					push(uccTask{lhs: s, rhs: bitset.Single(a), mUcc: t.mUcc})
					minimal = false
					break
				}
			}
			if minimal {
				m.emit(t.lhs, a)
			}
		}
	}
}

// directNonEmptySubsets returns the direct subsets of s, excluding the empty
// set (FDs with empty left-hand sides are the constant columns, extracted
// before the lattice phases).
func directNonEmptySubsets(s bitset.Set) []bitset.Set {
	if s.Len() <= 1 {
		return nil
	}
	return s.DirectSubsets()
}
