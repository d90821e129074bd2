package fd

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"holistic/internal/bitset"
	"holistic/internal/oracle"
	"holistic/internal/pli"
)

// closureOf is the attribute closure of x under the stored FDs.
func (s *Store) closureOf(x bitset.Set) bitset.Set {
	pairs := s.pairs()
	return closure(pairs, make([]fdPair, len(pairs)), x, bitset.Full(bitset.MaxColumns))
}

func TestClosure(t *testing.T) {
	s := NewStore()
	s.Add(bitset.FromLetters("A"), 1)  // A → B
	s.Add(bitset.FromLetters("B"), 2)  // B → C
	s.Add(bitset.FromLetters("CD"), 4) // CD → E

	if got := s.closureOf(bitset.FromLetters("A")); got != bitset.FromLetters("ABC") {
		t.Errorf("closure(A) = %v, want ABC", got)
	}
	if got := s.closureOf(bitset.FromLetters("AD")); got != bitset.FromLetters("ABCDE") {
		t.Errorf("closure(AD) = %v, want ABCDE", got)
	}
	if got := s.closureOf(bitset.FromLetters("E")); got != bitset.FromLetters("E") {
		t.Errorf("closure(E) = %v, want E", got)
	}
}

// implies reports whether lhs → rhs follows from the stored FDs.
func (s *Store) implies(lhs bitset.Set, rhs int) bool {
	return lhs.Has(rhs) || s.closureOf(lhs).Has(rhs)
}

// deriveUCCs runs DeriveUCCsContext without a deadline.
func (s *Store) deriveUCCs(all bitset.Set, seed int64) []bitset.Set {
	uccs, _ := s.DeriveUCCsContext(context.Background(), all, seed)
	return uccs
}

func TestImplies(t *testing.T) {
	s := NewStore()
	s.Add(bitset.FromLetters("A"), 1)
	s.Add(bitset.FromLetters("B"), 2)
	if !s.implies(bitset.FromLetters("A"), 2) {
		t.Error("A → C should follow transitively")
	}
	if s.implies(bitset.FromLetters("C"), 0) {
		t.Error("C → A does not follow")
	}
	if !s.implies(bitset.FromLetters("AC"), 2) {
		t.Error("trivial implication must hold")
	}
}

func TestDeriveUCCsTextbook(t *testing.T) {
	// R = ABCD with A → B, B → C: keys are AD (closure ABCD) and nothing
	// smaller: closure(A)=ABC, closure(D)=D.
	s := NewStore()
	s.Add(bitset.FromLetters("A"), 1)
	s.Add(bitset.FromLetters("B"), 2)
	got := s.deriveUCCs(bitset.Full(4), 1)
	want := []bitset.Set{bitset.FromLetters("AD")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DeriveUCCs = %v, want %v", got, want)
	}
}

func TestDeriveUCCsNoFDs(t *testing.T) {
	// Without any FD the only key is the full attribute set.
	s := NewStore()
	got := s.deriveUCCs(bitset.Full(3), 1)
	want := []bitset.Set{bitset.Full(3)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DeriveUCCs = %v, want %v", got, want)
	}
}

// Property (Lemma 2, the "FDs first" approach of Sec. 3.1): deriving UCCs
// from the complete set of minimal FDs of a duplicate-free relation yields
// exactly the minimal UCCs found on the data.
func TestQuickDeriveUCCsMatchesData(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 120,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomProvider(rnd, 6, 30, 4))
			vals[1] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(p *pli.Provider, seed int64) bool {
		store := NewStore()
		for _, f := range bruteFDs(p) {
			store.Add(f.LHS, f.RHS)
		}
		derived := store.deriveUCCs(p.Relation().AllColumns(), seed)
		return reflect.DeepEqual(derived, oracle.UCCs(p.Relation()))
	}, cfg); err != nil {
		t.Error(err)
	}
}
