package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"holistic/internal/bitset"
	"holistic/internal/fd"
	"holistic/internal/pli"
	"holistic/internal/relation"
	"holistic/internal/ucc"
)

func mustRel(t *testing.T, names []string, rows [][]string) *relation.Relation {
	t.Helper()
	r, err := relation.New("t", names, rows)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randomRelation(rnd *rand.Rand, maxCols, maxRows, maxCard int) *relation.Relation {
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
	return relation.MustNew("rand", names, data)
}

// TestConnectorLookupPaperExample reproduces Table 2 of the paper: minimal
// UCCs AFG, BDFG, DEF, CEFG; the connector FG matches AFG, BDFG, CEFG and
// the union of the matched columns minus the connector is ABCDE.
func TestConnectorLookupPaperExample(t *testing.T) {
	store := fd.NewStore()
	uccs := []bitset.Set{
		bitset.FromLetters("AFG"),
		bitset.FromLetters("BDFG"),
		bitset.FromLetters("DEF"),
		bitset.FromLetters("CEFG"),
	}
	m := newMudsFD(nil, bitset.Full(7), uccs, store, 0)
	got := m.connectorLookup(bitset.FromLetters("FG"))
	if want := bitset.FromLetters("ABCDE"); got != want {
		t.Errorf("connectorLookup(FG) = %v, want %v", got, want)
	}
	// A connector matching nothing yields no candidates.
	if got := m.connectorLookup(bitset.FromLetters("AB")); !got.IsEmpty() {
		t.Errorf("connectorLookup(AB) = %v, want ∅", got)
	}
}

// TestImpossibleColumnsRule1 checks pruning rule 1 of Sec. 4: no FD can lie
// fully inside a minimal UCC.
func TestImpossibleColumnsRule1(t *testing.T) {
	store := fd.NewStore()
	uccs := []bitset.Set{bitset.FromLetters("ABC"), bitset.FromLetters("CD")}
	m := newMudsFD(nil, bitset.Full(5), uccs, store, 0)
	// lhs AB lies inside ABC: C is an impossible rhs.
	if got := m.impossibleColumns(bitset.FromLetters("AB")); got != bitset.FromLetters("C") {
		t.Errorf("impossibleColumns(AB) = %v, want C", got)
	}
	// lhs E lies in no UCC: nothing is impossible by rule 1.
	if got := m.impossibleColumns(bitset.FromLetters("E")); !got.IsEmpty() {
		t.Errorf("impossibleColumns(E) = %v, want ∅", got)
	}
}

func TestRZColumns(t *testing.T) {
	store := fd.NewStore()
	uccs := []bitset.Set{bitset.FromLetters("AB")}
	m := newMudsFD(nil, bitset.Full(4), uccs, store, 0)
	if got := m.rzColumns(); got != bitset.FromLetters("CD") {
		t.Errorf("rzColumns = %v, want CD", got)
	}
}

// TestRemoveUCCs exercises Algorithm 3: stripping minimal UCCs out of a
// candidate left-hand side.
func TestRemoveUCCs(t *testing.T) {
	store := fd.NewStore()
	uccs := []bitset.Set{bitset.FromLetters("AB"), bitset.FromLetters("BC")}
	m := newMudsFD(nil, bitset.Full(5), uccs, store, 0)

	// No contained UCC: unchanged.
	if got := m.removeUCCs(bitset.FromLetters("ADE")); !reflect.DeepEqual(got, []bitset.Set{bitset.FromLetters("ADE")}) {
		t.Errorf("removeUCCs(ADE) = %v", got)
	}
	// ABC contains AB and BC; dropping B breaks both, dropping A and C
	// breaks them separately. Maximal reduced sets: AC (drop B) and ...
	// dropping A requires also dropping B or C for BC: {C}, {B}? B alone
	// leaves BC ⊆? No: removing A and C leaves B: contains neither AB nor
	// BC. Maximal results are AC and B.
	got := m.removeUCCs(bitset.FromLetters("ABC"))
	want := []bitset.Set{bitset.FromLetters("B"), bitset.FromLetters("AC")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("removeUCCs(ABC) = %v, want %v", got, want)
	}
	for _, r := range got {
		if m.uccs.CoversSubsetOf(r) {
			t.Errorf("reduced lhs %v still contains a UCC", r)
		}
	}
}

// TestShadowedPaperExample builds a relation realising the shadowed-FD
// example of Sec. 4.3: minimal FD AC → B whose left-hand side spans the
// minimal UCCs and is invisible to the connector look-up. MUDS must find it.
func TestShadowedPaperExample(t *testing.T) {
	// Construct data with minimal UCCs BCD, CDE, AD and the FD AC → B among
	// others. We approximate the example with a small concrete instance and
	// verify against the oracle rather than pinning the exact FD list.
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		rel := randomRelation(rnd, 6, 18, 3)
		verifyMudsMatchesOracles(t, rel, int64(i))
	}
}

func verifyMudsMatchesOracles(t *testing.T, rel *relation.Relation, seed int64) {
	t.Helper()
	res := Muds(rel, Options{Seed: seed})
	p := pli.NewProvider(rel, nil)
	wantFDs := fd.BruteForce(p)
	wantUCCs := ucc.BruteForce(p)
	if !reflect.DeepEqual(res.FDs, wantFDs) {
		t.Fatalf("MUDS FDs mismatch on %v (seed %d):\n got %v\nwant %v\nrows: %v",
			rel.Name(), seed, res.FDs, wantFDs, rel.Rows())
	}
	if !reflect.DeepEqual(res.UCCs, wantUCCs) {
		t.Fatalf("MUDS UCCs mismatch (seed %d): got %v want %v\nrows: %v",
			seed, res.UCCs, wantUCCs, rel.Rows())
	}
}

// TestMudsSmoke runs MUDS on a small hand-made dataset and checks all three
// result kinds.
func TestMudsSmoke(t *testing.T) {
	rel := mustRel(t,
		[]string{"id", "zip", "city", "tag"},
		[][]string{
			{"1", "14482", "Potsdam", "x"},
			{"2", "14482", "Potsdam", "y"},
			{"3", "10115", "Berlin", "x"},
			{"4", "10117", "Berlin", "y"},
			{"5", "10117", "Berlin", "x"},
		})
	res := Muds(rel, Options{Seed: 1})
	// id is the only minimal UCC... id and nothing else? zip+tag: (14482,x),
	// (14482,y),(10115,x),(10117,y),(10117,x) — unique! So UCCs: {id}, {zip,tag}.
	wantUCCs := []bitset.Set{bitset.New(0), bitset.New(1, 3)}
	if !reflect.DeepEqual(res.UCCs, wantUCCs) {
		t.Errorf("UCCs = %v, want %v", res.UCCs, wantUCCs)
	}
	// zip → city must be found.
	found := false
	for _, f := range res.FDs {
		if f.LHS == bitset.New(1) && f.RHS == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("zip → city missing from %v", res.FDs)
	}
	// Phases are present and named like Figure 8.
	if res.PhaseDuration(PhaseSpider) < 0 || len(res.Phases) < 4 {
		t.Errorf("unexpected phases: %+v", res.Phases)
	}
	verifyMudsMatchesOracles(t, rel, 1)
}

func TestMudsDegenerate(t *testing.T) {
	// Single-row relation: all columns constant; every column a minimal UCC.
	rel := mustRel(t, []string{"A", "B"}, [][]string{{"x", "y"}})
	res := Muds(rel, Options{})
	wantFDs := []fd.FD{{LHS: bitset.Set{}, RHS: 0}, {LHS: bitset.Set{}, RHS: 1}}
	if !reflect.DeepEqual(res.FDs, wantFDs) {
		t.Errorf("FDs = %v, want %v", res.FDs, wantFDs)
	}
	wantUCCs := []bitset.Set{bitset.New(0), bitset.New(1)}
	if !reflect.DeepEqual(res.UCCs, wantUCCs) {
		t.Errorf("UCCs = %v, want %v", res.UCCs, wantUCCs)
	}
}

func TestMudsConstantColumns(t *testing.T) {
	rel := mustRel(t, []string{"A", "B", "C"}, [][]string{
		{"k", "1", "x"},
		{"k", "2", "x"},
		{"k", "3", "y"},
	})
	verifyMudsMatchesOracles(t, rel, 0)
}

// Property: MUDS agrees with the brute-force FD and UCC oracles and with
// SPIDER for INDs on random relations, for arbitrary seeds.
func TestQuickMudsMatchesOracles(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomRelation(rnd, 6, 30, 4))
			vals[1] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(rel *relation.Relation, seed int64) bool {
		res := Muds(rel, Options{Seed: seed})
		p := pli.NewProvider(rel, nil)
		return reflect.DeepEqual(res.FDs, fd.BruteForce(p)) &&
			reflect.DeepEqual(res.UCCs, ucc.BruteForce(p))
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestCrossCheckSeedSweep hammers MUDS against the oracles across many fixed
// seeds and relation shapes, including shapes likely to produce shadowed FDs
// (more columns, low cardinality).
func TestCrossCheckSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	for seed := int64(0); seed < 400; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		rel := randomRelation(rnd, 7, 24, 3)
		verifyMudsMatchesOracles(t, rel, seed)
	}
}

// TestStrategiesAgree verifies that all four strategies produce identical
// FDs (and identical UCCs where the strategy reports them).
func TestStrategiesAgree(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	for i := 0; i < 25; i++ {
		rel := randomRelation(rnd, 6, 25, 4)
		src := RelationSource{Rel: rel}
		muds, err := Run(StrategyMuds, src, Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		hfun, err := Run(StrategyHolisticFun, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		base, err := Run(StrategyBaseline, src, Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		tane, err := Run(StrategyTane, src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fdfirst, err := Run(StrategyFDFirst, src, Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(muds.FDs, hfun.FDs) || !reflect.DeepEqual(muds.FDs, base.FDs) ||
			!reflect.DeepEqual(muds.FDs, tane.FDs) || !reflect.DeepEqual(muds.FDs, fdfirst.FDs) {
			t.Fatalf("FD mismatch across strategies on run %d\nmuds: %v\nhfun: %v\nbase: %v\ntane: %v\nfdfirst: %v",
				i, muds.FDs, hfun.FDs, base.FDs, tane.FDs, fdfirst.FDs)
		}
		if !reflect.DeepEqual(muds.UCCs, hfun.UCCs) || !reflect.DeepEqual(muds.UCCs, base.UCCs) ||
			!reflect.DeepEqual(muds.UCCs, fdfirst.UCCs) {
			t.Fatalf("UCC mismatch across strategies on run %d\nmuds: %v\nfdfirst: %v",
				i, muds.UCCs, fdfirst.UCCs)
		}
		if !reflect.DeepEqual(muds.INDs, hfun.INDs) || !reflect.DeepEqual(muds.INDs, base.INDs) {
			t.Fatalf("IND mismatch across strategies on run %d", i)
		}
		if fdfirst.PhaseDuration(PhaseUCCInference) < 0 {
			t.Fatal("fdfirst must report the inference phase")
		}
	}
}

func TestRunUnknownStrategy(t *testing.T) {
	_, err := Run("nope", RelationSource{Rel: mustRel(t, []string{"A"}, [][]string{{"1"}})}, Options{})
	if err == nil {
		t.Error("expected error for unknown strategy")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Phases: []Phase{{Name: "a", Duration: 2}, {Name: "b", Duration: 3}, {Name: "a", Duration: 5}}}
	if r.Total() != 10 {
		t.Errorf("Total = %v", r.Total())
	}
	if r.PhaseDuration("a") != 7 {
		t.Errorf("PhaseDuration(a) = %v", r.PhaseDuration("a"))
	}
	if r.PhaseDuration("zzz") != 0 {
		t.Errorf("PhaseDuration(zzz) = %v", r.PhaseDuration("zzz"))
	}
}
