package ucc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"holistic/internal/bitset"
	"holistic/internal/oracle"
	"holistic/internal/pli"
	"holistic/internal/relation"
)

// ducc runs DUCC without a deadline.
func ducc(p *pli.Provider, seed int64) Result {
	res, _ := DuccContext(context.Background(), p, seed)
	return res
}

func provider(t *testing.T, names []string, rows [][]string) *pli.Provider {
	t.Helper()
	r, err := relation.New("t", names, rows)
	if err != nil {
		t.Fatal(err)
	}
	return pli.NewProvider(r, nil)
}

func TestSimpleKey(t *testing.T) {
	p := provider(t, []string{"A", "B"}, [][]string{
		{"1", "x"},
		{"2", "x"},
		{"3", "y"},
	})
	want := []bitset.Set{bitset.New(0)} // A is the only minimal UCC
	for name, got := range map[string][]bitset.Set{
		"brute": oracle.UCCs(p.Relation()),
		"ducc":  ducc(p, 1).Minimal,
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestCompositeKey(t *testing.T) {
	// Neither A nor B unique, AB unique.
	p := provider(t, []string{"A", "B"}, [][]string{
		{"1", "x"},
		{"1", "y"},
		{"2", "x"},
		{"2", "y"},
	})
	want := []bitset.Set{bitset.New(0, 1)}
	if got := ducc(p, 42).Minimal; !reflect.DeepEqual(got, want) {
		t.Errorf("ducc = %v, want %v", got, want)
	}
	// Maximal non-UCCs are the single columns.
	wantNon := []bitset.Set{bitset.New(0), bitset.New(1)}
	if got := ducc(p, 42).MaximalNonUnique; !reflect.DeepEqual(got, wantNon) {
		t.Errorf("maximal non-UCCs = %v, want %v", got, wantNon)
	}
}

func TestFullRelationAlwaysUniqueAfterDedup(t *testing.T) {
	// Because duplicate rows are removed at load time, the set of all
	// columns is always a UCC, so at least one minimal UCC always exists
	// (paper Sec. 3 requires duplicate-free inputs).
	p := provider(t, []string{"A", "B"}, [][]string{
		{"1", "x"},
		{"1", "x"}, // duplicate, removed
		{"1", "y"},
	})
	got := ducc(p, 3).Minimal
	if len(got) == 0 {
		t.Fatal("expected at least one minimal UCC after dedup")
	}
}

func TestSingleColumnRelation(t *testing.T) {
	p := provider(t, []string{"A"}, [][]string{{"1"}, {"2"}})
	want := []bitset.Set{bitset.New(0)}
	if got := ducc(p, 0).Minimal; !reflect.DeepEqual(got, want) {
		t.Errorf("ducc = %v, want %v", got, want)
	}
}

func TestSingleRowRelation(t *testing.T) {
	p := provider(t, []string{"A", "B"}, [][]string{{"1", "x"}})
	// Every single column is unique on a one-row relation.
	want := []bitset.Set{bitset.New(0), bitset.New(1)}
	for name, got := range map[string][]bitset.Set{
		"brute": oracle.UCCs(p.Relation()),
		"ducc":  ducc(p, 9).Minimal,
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestHoleScenario builds a relation whose minimal UCCs sit at mixed lattice
// levels, the situation where DUCC's up/down pruning can leave unvisited
// holes that the hitting-set phase must fill.
func TestHoleScenario(t *testing.T) {
	rows := [][]string{
		{"1", "a", "x", "p"},
		{"2", "a", "x", "q"},
		{"3", "b", "y", "p"},
		{"3", "b", "z", "q"},
		{"4", "c", "z", "p"},
		{"4", "d", "z", "p2"},
	}
	p := provider(t, []string{"A", "B", "C", "D"}, rows)
	want := oracle.UCCs(p.Relation())
	for seed := int64(0); seed < 20; seed++ {
		if got := ducc(p, seed).Minimal; !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: ducc = %v, want %v", seed, got, want)
		}
	}
}

func TestMaximalNonUniqueAreValid(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	p := randomProvider(rnd, 6, 40, 3)
	res := ducc(p, 11)
	for _, m := range res.MaximalNonUnique {
		if p.IsUnique(m) {
			t.Errorf("certified non-UCC %v is unique", m)
		}
		// Maximality: every direct superset is unique.
		for c := 0; c < p.Relation().NumColumns(); c++ {
			if sup := m.With(c); sup != m && !p.IsUnique(sup) {
				t.Errorf("non-UCC %v is not maximal: %v is non-unique", m, sup)
			}
		}
	}
}

func TestChecksCounted(t *testing.T) {
	p := provider(t, []string{"A", "B"}, [][]string{
		{"1", "x"},
		{"1", "y"},
		{"2", "x"},
		{"2", "y"},
	})
	res := ducc(p, 0)
	if res.Checks == 0 {
		t.Error("expected at least one uniqueness check")
	}
}

func randomProvider(rnd *rand.Rand, maxCols, maxRows, maxCard int) *pli.Provider {
	cols := 2 + rnd.Intn(maxCols-1)
	rows := 2 + rnd.Intn(maxRows-1)
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, cols)
		for c := range row {
			row[c] = fmt.Sprint(rnd.Intn(1 + rnd.Intn(maxCard)))
		}
		data[i] = row
	}
	return pli.NewProvider(oracle.MustRelation("rand", names, data), nil)
}

// Property: DUCC agrees with the brute-force oracle on random relations, for
// arbitrary seeds.
func TestQuickAlgorithmsAgree(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 120,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomProvider(rnd, 6, 30, 4))
			vals[1] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(p *pli.Provider, seed int64) bool {
		return reflect.DeepEqual(ducc(p, seed).Minimal, oracle.UCCs(p.Relation()))
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: every reported minimal UCC is unique and all its direct subsets
// are non-unique (true minimality, checked directly on the data).
func TestQuickMinimality(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomProvider(rnd, 5, 25, 3))
			vals[1] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(p *pli.Provider, seed int64) bool {
		rel := p.Relation()
		for _, u := range ducc(p, seed).Minimal {
			if !oracle.Unique(rel, u) {
				return false
			}
			for _, sub := range u.DirectSubsets() {
				if !sub.IsEmpty() && oracle.Unique(rel, sub) {
					return false
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
