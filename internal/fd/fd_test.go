package fd

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

// fun runs FUN without a deadline at one worker.
func fun(p *pli.Provider) Result {
	res, _ := FunContext(context.Background(), p, 1)
	return res
}

// tane runs TANE without a deadline at one worker.
func tane(p *pli.Provider) Result {
	res, _ := TaneContext(context.Background(), p, 1)
	return res
}

// bruteFDs returns the brute-force oracle's minimal FDs of p's relation.
func bruteFDs(p *pli.Provider) []FD {
	var out []FD
	for _, f := range oracle.FDs(p.Relation()) {
		out = append(out, FD(f))
	}
	return out
}

func provider(t *testing.T, names []string, rows [][]string) *pli.Provider {
	t.Helper()
	r, err := relation.New("t", names, rows)
	if err != nil {
		t.Fatal(err)
	}
	return pli.NewProvider(r, nil)
}

func letters(fds []FD) []string {
	out := make([]string, len(fds))
	for i, f := range fds {
		out[i] = f.String()
	}
	return out
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	lhs := bitset.FromLetters("AB")
	s.Add(lhs, 2)
	s.Add(lhs, 2) // duplicate, not double counted
	s.Add(lhs, 3)
	s.Add(bitset.FromLetters("C"), 0)
	s.Add(bitset.FromLetters("C"), 1)
	all := s.All()
	if len(all) != 4 {
		t.Fatalf("All = %v", all)
	}
	// Sorted: C→A, C→B come before AB→C, AB→D (cardinality order).
	if all[0].String() != "C → A" || all[3].String() != "AB → D" {
		t.Errorf("ordering: %v", letters(all))
	}
}

func TestStoreRejectsTrivial(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for trivial FD")
		}
	}()
	NewStore().Add(bitset.FromLetters("AB"), 0)
}

func TestFDString(t *testing.T) {
	f := FD{LHS: bitset.FromLetters("AF"), RHS: 1}
	if got := f.String(); got != "AF → B" {
		t.Errorf("String = %q", got)
	}
	empty := FD{LHS: bitset.Set{}, RHS: 0}
	if got := empty.String(); got != "∅ → A" {
		t.Errorf("String = %q", got)
	}
}

// Classic textbook example: address data where zip → city and city,street
// do not determine zip.
func TestKnownFDs(t *testing.T) {
	p := provider(t,
		[]string{"zip", "city", "street"},
		[][]string{
			{"14482", "Potsdam", "A"},
			{"14482", "Potsdam", "B"},
			{"10115", "Berlin", "A"},
			{"10117", "Berlin", "B"},
			{"10117", "Berlin", "C"},
		})
	want := bruteFDs(p)
	// zip → city must be among the minimal FDs (A → B in letters).
	foundZipCity := false
	for _, f := range want {
		if f.LHS == bitset.New(0) && f.RHS == 1 {
			foundZipCity = true
		}
	}
	if !foundZipCity {
		t.Fatalf("oracle missing zip → city: %v", letters(want))
	}
	if got := tane(p).FDs; !reflect.DeepEqual(got, want) {
		t.Errorf("tane = %v, want %v", letters(got), letters(want))
	}
	if got := fun(p).FDs; !reflect.DeepEqual(got, want) {
		t.Errorf("fun = %v, want %v", letters(got), letters(want))
	}
}

func TestConstantColumns(t *testing.T) {
	p := provider(t, []string{"A", "B"}, [][]string{
		{"k", "1"},
		{"k", "2"},
	})
	if got := ConstantColumns(p); got != bitset.New(0) {
		t.Errorf("ConstantColumns = %v", got)
	}
	want := []FD{{LHS: bitset.Set{}, RHS: 0}}
	for name, got := range map[string][]FD{
		"oracle": bruteFDs(p),
		"tane":   tane(p).FDs,
		"fun":    fun(p).FDs,
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", name, letters(got), letters(want))
		}
	}
}

func TestAllConstantRelation(t *testing.T) {
	p := provider(t, []string{"A", "B"}, [][]string{{"k", "x"}})
	want := []FD{{LHS: bitset.Set{}, RHS: 0}, {LHS: bitset.Set{}, RHS: 1}}
	for name, got := range map[string][]FD{
		"oracle": bruteFDs(p),
		"tane":   tane(p).FDs,
		"fun":    fun(p).FDs,
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", name, letters(got), letters(want))
		}
	}
}

func TestNoFDs(t *testing.T) {
	// Two independent near-random columns with no dependencies in either
	// direction and no constant columns.
	p := provider(t, []string{"A", "B"}, [][]string{
		{"1", "x"},
		{"1", "y"},
		{"2", "x"},
		{"2", "y"},
		{"3", "x"},
	})
	for name, got := range map[string][]FD{
		"oracle": bruteFDs(p),
		"tane":   tane(p).FDs,
		"fun":    fun(p).FDs,
	} {
		if len(got) != 0 {
			t.Errorf("%s = %v, want none", name, letters(got))
		}
	}
}

func TestKeyFDs(t *testing.T) {
	// A is a key: A → B and A → C, both minimal; B,C carry no dependencies.
	p := provider(t, []string{"A", "B", "C"}, [][]string{
		{"1", "x", "p"},
		{"2", "x", "q"},
		{"3", "y", "p"},
		{"4", "y", "q"},
		{"5", "x", "p"},
	})
	want := bruteFDs(p)
	if got := tane(p).FDs; !reflect.DeepEqual(got, want) {
		t.Errorf("tane = %v, want %v", letters(got), letters(want))
	}
	fr := fun(p)
	if !reflect.DeepEqual(fr.FDs, want) {
		t.Errorf("fun = %v, want %v", letters(fr.FDs), letters(want))
	}
	if !reflect.DeepEqual(fr.MinimalUCCs, []bitset.Set{bitset.New(0)}) {
		t.Errorf("fun UCCs = %v", fr.MinimalUCCs)
	}
}

func TestChecksCounted(t *testing.T) {
	p := provider(t, []string{"A", "B", "C"}, [][]string{
		{"1", "x", "p"},
		{"2", "x", "q"},
		{"3", "y", "p"},
	})
	if tane(p).Checks == 0 {
		t.Error("tane should count validity checks")
	}
	// FUN counts PLI cardinality computations for generated candidates.
	if fun(p).Checks == 0 {
		t.Error("fun should count cardinality computations")
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

// Property: TANE and FUN agree with the brute-force oracle.
func TestQuickAlgorithmsAgree(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 150,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomProvider(rnd, 6, 30, 4))
		},
	}
	if err := quick.Check(func(p *pli.Provider) bool {
		want := bruteFDs(p)
		if !reflect.DeepEqual(tane(p).FDs, want) {
			return false
		}
		return reflect.DeepEqual(fun(p).FDs, want)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property (Holistic FUN, Lemma 3): the keys collected by FUN are exactly
// the minimal UCCs found by the UCC oracle.
func TestQuickFunUCCsComplete(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomProvider(rnd, 6, 30, 4))
		},
	}
	if err := quick.Check(func(p *pli.Provider) bool {
		return reflect.DeepEqual(fun(p).MinimalUCCs, oracle.UCCs(p.Relation()))
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property (Lemma 2): every column combination that functionally determines
// all other attributes is a UCC — verified through discovered FDs: the union
// of attributes determined by a minimal UCC must be the full relation.
func TestQuickLemma2(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomProvider(rnd, 5, 25, 3))
		},
	}
	if err := quick.Check(func(p *pli.Provider) bool {
		n := p.Relation().NumColumns()
		for _, u := range oracle.UCCs(p.Relation()) {
			// U determines every other attribute.
			rest := bitset.Full(n).Diff(u)
			if got := p.CheckFDs(u, rest); got != rest {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: every FD reported by TANE/FUN is valid and minimal on the data.
func TestQuickMinimalityAndValidity(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomProvider(rnd, 5, 25, 3))
		},
	}
	if err := quick.Check(func(p *pli.Provider) bool {
		for _, f := range tane(p).FDs {
			if !oracle.Holds(p.Relation(), f.LHS, f.RHS) {
				return false
			}
			for _, sub := range f.LHS.DirectSubsets() {
				if oracle.Holds(p.Relation(), sub, f.RHS) {
					return false
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
