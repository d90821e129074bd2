// Package fd implements functional dependency discovery: the TANE and FUN
// baselines (paper Secs. 2.3 and 3.2) and a brute-force oracle for tests.
// FUN doubles as the FD part of Holistic FUN: it returns the minimal UCCs
// (its keys) alongside the minimal FDs, which by Lemma 3 of the paper it
// must traverse anyway.
//
// All algorithms emit the complete set of *minimal, non-trivial* FDs,
// including constant columns as FDs with an empty left-hand side (∅ → A).
package fd

import (
	"fmt"
	"sort"

	"holistic/internal/bitset"
	"holistic/internal/pli"
)

// FD is a minimal functional dependency LHS → RHS with a single right-hand
// side attribute. A constant column A is represented as ∅ → A.
type FD struct {
	LHS bitset.Set
	RHS int
}

// String formats the FD in the paper's letter notation, e.g. "AF → B".
func (f FD) String() string {
	rhs := fmt.Sprintf("col%d", f.RHS)
	if f.RHS < 26 {
		rhs = string(rune('A' + f.RHS))
	}
	return fmt.Sprintf("%v → %s", f.LHS, rhs)
}

// Sort orders FDs by (LHS, RHS) for deterministic output and comparisons.
func Sort(fds []FD) {
	sort.Slice(fds, func(i, j int) bool {
		if fds[i].LHS != fds[j].LHS {
			return bitset.Less(fds[i].LHS, fds[j].LHS)
		}
		return fds[i].RHS < fds[j].RHS
	})
}

// Store collects FDs grouped by left-hand side, the map(lhs → rhs-set)
// representation of paper Algorithms 1 and 2, which closures scan.
type Store struct {
	byLHS map[bitset.Set]bitset.Set
	count int
}

// NewStore returns an empty FD store.
func NewStore() *Store {
	return &Store{byLHS: make(map[bitset.Set]bitset.Set)}
}

// Add records lhs → rhs. Trivial FDs (rhs ∈ lhs) are rejected with a panic:
// no discovery algorithm may produce them.
func (s *Store) Add(lhs bitset.Set, rhs int) {
	if lhs.Has(rhs) {
		panic(fmt.Sprintf("fd: trivial FD %v → %d", lhs, rhs))
	}
	prev := s.byLHS[lhs]
	next := prev.With(rhs)
	if next != prev {
		s.byLHS[lhs] = next
		s.count++
	}
}

// All returns the stored FDs sorted (nil when empty).
func (s *Store) All() []FD {
	if s.count == 0 {
		return nil
	}
	out := make([]FD, 0, s.count)
	for lhs, rhs := range s.byLHS {
		rhs.ForEach(func(a int) {
			out = append(out, FD{LHS: lhs, RHS: a})
		})
	}
	Sort(out)
	return out
}

// ConstantColumns returns the set of columns with at most one distinct
// value. Such columns are exactly the FDs with empty left-hand side; every
// FD algorithm extracts them up front and excludes them from lattice work
// (X → A is never minimal for constant A and non-empty X, and a constant
// column inside a left-hand side never contributes).
func ConstantColumns(p *pli.Provider) bitset.Set {
	var s bitset.Set
	rel := p.Relation()
	for c := 0; c < rel.NumColumns(); c++ {
		if rel.Cardinality(c) <= 1 {
			s = s.With(c)
		}
	}
	return s
}

// Result is the output of an FD discovery run.
type Result struct {
	// FDs are the minimal non-trivial FDs, sorted.
	FDs []FD
	// MinimalUCCs are the minimal unique column combinations encountered as
	// keys during discovery. FUN fills this (Holistic FUN, paper Sec. 3.2);
	// TANE leaves it empty unless collection is requested.
	MinimalUCCs []bitset.Set
	// Checks counts FD validity checks (partition refinements or cardinality
	// comparisons) that required actual PLI work.
	Checks int
}
