package core

import (
	"reflect"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/fd"
	"holistic/internal/pli"
	"holistic/internal/relation"
)

func testFD(t *testing.T) *mudsFD {
	t.Helper()
	rel := relation.MustNew("t", []string{"A", "B", "C", "D"}, [][]string{
		{"1", "x", "p", "q"},
		{"2", "x", "p", "r"},
		{"3", "y", "q", "q"},
	})
	p := pli.NewProvider(rel, nil)
	return newMudsFD(p, rel.AllColumns(), []bitset.Set{bitset.New(0)}, fd.NewStore(), 1)
}

func TestEmitDeduplicates(t *testing.T) {
	m := testFD(t)
	m.emit(bitset.FromLetters("B"), 2)
	m.emit(bitset.FromLetters("B"), 2) // duplicate ignored
	if m.store.Count() != 1 {
		t.Errorf("Count = %d, want 1", m.store.Count())
	}
	// A late smaller lhs replaces the stored superset.
	m.emit(bitset.FromLetters("BC"), 3)
	m.emit(bitset.FromLetters("C"), 3)
	if m.store.RHS(bitset.FromLetters("BC")).Has(3) {
		t.Error("superseded FD should be removed from the store")
	}
	if !m.store.RHS(bitset.FromLetters("C")).Has(3) {
		t.Error("replacement FD missing")
	}
	// A superset arriving after the subset is ignored entirely.
	m.emit(bitset.FromLetters("CD"), 1)
	countBefore := m.store.Count()
	m.emit(bitset.FromLetters("BCD"), 1)
	if m.store.Count() != countBefore {
		t.Error("non-minimal late emission should be ignored")
	}
}

func TestKnownValidAndInvalid(t *testing.T) {
	m := testFD(t)
	m.emit(bitset.FromLetters("B"), 2)
	if !m.knownValid(bitset.FromLetters("AB"), 2) {
		t.Error("AB ⊇ B should be known valid for rhs C")
	}
	if m.knownValid(bitset.FromLetters("A"), 2) {
		t.Error("A is not known valid")
	}
	// Record a failure and verify downward pruning (Lemma 4).
	m.falseRHS[3].Add(bitset.FromLetters("BC"))
	if !m.knownInvalid(bitset.FromLetters("B"), 3) {
		t.Error("B ⊆ BC should be known invalid for rhs D")
	}
	if m.knownInvalid(bitset.FromLetters("AB"), 3) {
		t.Error("AB ⊄ BC must not be known invalid")
	}
}

func TestResolveFDRecordsFailures(t *testing.T) {
	m := testFD(t)
	// B → C holds on the fixture; B → A does not.
	if !m.resolveFD(bitset.FromLetters("B"), 2) {
		t.Error("B → C should hold")
	}
	if m.resolveFD(bitset.FromLetters("B"), 0) {
		t.Error("B → A should not hold")
	}
	if !m.knownInvalid(bitset.FromLetters("B"), 0) {
		t.Error("failure should be recorded as a certificate")
	}
	checksBefore := m.checks
	if m.resolveFD(bitset.FromLetters("B"), 0) {
		t.Error("cached failure changed value")
	}
	if m.checks != checksBefore {
		t.Error("cached failure should not re-touch PLIs")
	}
	// Trivial FDs resolve without work.
	if !m.resolveFD(bitset.FromLetters("AB"), 0) {
		t.Error("trivial FD must hold")
	}
}

func TestCheckFDsMixedShortcuts(t *testing.T) {
	m := testFD(t)
	m.emit(bitset.FromLetters("B"), 2)         // known valid: B → C
	m.falseRHS[0].Add(bitset.FromLetters("B")) // known invalid: B → A
	got := m.checkFDs(bitset.FromLetters("B"), bitset.FromLetters("ABCD"))
	// B → B trivial, B → C known, B → D must be checked (fails on row 1 vs 2).
	want := bitset.FromLetters("BC")
	if got != want {
		t.Errorf("checkFDs = %v, want %v", got, want)
	}
}

func TestCanonicalLHS(t *testing.T) {
	m := testFD(t)
	m.emit(bitset.FromLetters("B"), 2) // B → C known
	// BC canonicalises to B (C is determined by the rest).
	if got := m.canonicalLHS(bitset.FromLetters("BC")); got != bitset.FromLetters("B") {
		t.Errorf("canonicalLHS(BC) = %v, want B", got)
	}
	// Nothing to remove without applicable FDs.
	if got := m.canonicalLHS(bitset.FromLetters("AD")); got != bitset.FromLetters("AD") {
		t.Errorf("canonicalLHS(AD) = %v, want AD", got)
	}
}

func TestRemoveUCCsBranchLimit(t *testing.T) {
	// Many overlapping UCCs inside the lhs: the enumeration must stay
	// bounded and every returned set must be UCC-free.
	store := fd.NewStore()
	var uccs []bitset.Set
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			uccs = append(uccs, bitset.New(a, b))
		}
	}
	m := newMudsFD(nil, bitset.Full(12), uccs, store, 0)
	out := m.removeUCCsCached(bitset.Full(10))
	for _, r := range out {
		if m.uccs.CoversSubsetOf(r) {
			t.Errorf("reduced lhs %v still contains a UCC", r)
		}
	}
	// Cached second call returns the same result.
	if !reflect.DeepEqual(m.removeUCCsCached(bitset.Full(10)), out) {
		t.Error("cache mismatch")
	}
}
