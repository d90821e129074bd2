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
	// A superset arriving after the subset is ignored entirely.
	m.emit(bitset.FromLetters("CD"), 1)
	m.emit(bitset.FromLetters("BCD"), 1)
	want := []fd.FD{{LHS: bitset.FromLetters("B"), RHS: 2}, {LHS: bitset.FromLetters("CD"), RHS: 1}}
	fd.Sort(want)
	if got := m.store.All(); !reflect.DeepEqual(got, want) {
		t.Errorf("stored FDs = %v, want %v", got, want)
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
