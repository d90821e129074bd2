package ucc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"holistic/internal/bitset"
	"holistic/internal/oracle"
	"holistic/internal/pli"
)

func TestAgreeSetSimple(t *testing.T) {
	rel := provider(t, []string{"A", "B"}, [][]string{
		{"1", "x"},
		{"2", "x"},
		{"3", "y"},
	}).Relation()
	want := []bitset.Set{bitset.New(0)}
	if got := oracle.AgreeSetUCCs(rel); !reflect.DeepEqual(got, want) {
		t.Errorf("AgreeSetUCCs = %v, want %v", got, want)
	}
	// Rows 1 and 2 agree exactly on B: the only maximal non-unique set.
	if got := oracle.AgreeSets(rel); !reflect.DeepEqual(got, []bitset.Set{bitset.New(1)}) {
		t.Errorf("AgreeSets = %v", got)
	}
}

func TestAgreeSetAllUniqueColumns(t *testing.T) {
	rel := provider(t, []string{"A", "B"}, [][]string{
		{"1", "x"},
		{"2", "y"},
	}).Relation()
	want := []bitset.Set{bitset.New(0), bitset.New(1)}
	if got := oracle.AgreeSetUCCs(rel); !reflect.DeepEqual(got, want) {
		t.Errorf("AgreeSetUCCs = %v, want %v", got, want)
	}
	if got := oracle.AgreeSets(rel); len(got) != 0 {
		t.Errorf("AgreeSets = %v, want none (no agreeing pairs)", got)
	}
}

func TestAgreeSetSingleRow(t *testing.T) {
	rel := provider(t, []string{"A", "B"}, [][]string{{"1", "x"}}).Relation()
	want := []bitset.Set{bitset.New(0), bitset.New(1)}
	if got := oracle.AgreeSetUCCs(rel); !reflect.DeepEqual(got, want) {
		t.Errorf("AgreeSetUCCs = %v, want %v", got, want)
	}
}

// Property: the row-based oracle agrees with the brute-force oracle and with
// DUCC, and its maximal agree sets are genuine and maximal non-uniques.
func TestQuickAgreeSetMatchesOracle(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 120,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomProvider(rnd, 6, 25, 4))
		},
	}
	if err := quick.Check(func(p *pli.Provider) bool {
		rel := p.Relation()
		got := oracle.AgreeSetUCCs(rel)
		if !reflect.DeepEqual(got, oracle.UCCs(rel)) || !reflect.DeepEqual(got, ducc(p, 1).Minimal) {
			return false
		}
		for _, m := range oracle.AgreeSets(rel) {
			if oracle.Unique(rel, m) {
				return false
			}
			for c := 0; c < rel.NumColumns(); c++ {
				if sup := m.With(c); sup != m && !oracle.Unique(rel, sup) {
					return false
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
