package dataset

import (
	"reflect"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/fd"
	"holistic/internal/pli"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "d", Rows: 100, Seed: 5, Columns: []ColumnSpec{
		{Name: "a", Kind: Random, Card: 5},
		{Name: "b", Kind: Derived, Parents: []int{0}, Card: 3, Salt: 1},
		{Name: "c", Kind: ID},
	}}
	r1 := Generate(spec)
	r2 := Generate(spec)
	if !reflect.DeepEqual(r1.Rows(), r2.Rows()) {
		t.Error("generation must be deterministic")
	}
}

func TestColumnKinds(t *testing.T) {
	rel := Generate(Spec{Name: "k", Rows: 60, Seed: 9, Columns: []ColumnSpec{
		{Name: "id", Kind: ID},
		{Name: "rnd", Kind: Random, Card: 4},
		{Name: "zipf", Kind: Zipf, Card: 4},
		{Name: "mr", Kind: MixedRadix, Card: 3, Stride: 20},
		{Name: "drv", Kind: Derived, Parents: []int{1}, Card: 2, Salt: 7},
	}})
	if rel.NumRows() != 60 {
		t.Fatalf("rows = %d (ID column should prevent duplicates)", rel.NumRows())
	}
	if rel.Cardinality(0) != 60 {
		t.Error("ID column must be unique")
	}
	if rel.Cardinality(1) > 4 || rel.Cardinality(2) > 4 {
		t.Error("Random/Zipf cardinality exceeded")
	}
	if rel.Cardinality(3) != 3 {
		t.Errorf("MixedRadix cardinality = %d, want 3", rel.Cardinality(3))
	}
	// Derived column: rnd → drv must hold.
	p := pli.NewProvider(rel, nil)
	if !p.CheckFD(bitset.New(1), 4) {
		t.Error("planted FD rnd → drv does not hold")
	}
}

func TestZipfSkew(t *testing.T) {
	rel := Generate(Spec{Name: "z", Rows: 4000, Seed: 1, Columns: []ColumnSpec{
		{Name: "id", Kind: ID},
		{Name: "z", Kind: Zipf, Card: 10},
	}})
	counts := map[string]int{}
	for i := 0; i < rel.NumRows(); i++ {
		counts[rel.Value(i, 1)]++
	}
	if counts["z0"] <= counts["z9"] {
		t.Errorf("zipf head %d should outweigh tail %d", counts["z0"], counts["z9"])
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown kind")
		}
	}()
	Generate(Spec{Name: "bad", Rows: 1, Columns: []ColumnSpec{{Kind: Kind(99)}}})
}

func TestUniprotShape(t *testing.T) {
	rel := Uniprot(2000)
	if rel.NumColumns() != 10 {
		t.Fatalf("columns = %d, want 10", rel.NumColumns())
	}
	// entry_name is only near-unique, so a few duplicate rows may fold away.
	if rel.NumRows() < 1900 {
		t.Errorf("rows = %d, want ≈2000", rel.NumRows())
	}
	// Planted FDs hold: organism → tax_id, {tax_id, evidence} → reviewed.
	p := pli.NewProvider(rel, nil)
	if !p.CheckFD(bitset.New(1), 2) {
		t.Error("organism → tax_id missing")
	}
	if !p.CheckFD(bitset.New(2, 8), 9) {
		t.Error("tax_id,evidence → reviewed missing")
	}
}

func TestIonosphereShape(t *testing.T) {
	rel := Ionosphere(23, 351)
	if rel.NumColumns() != 23 {
		t.Fatalf("columns = %d", rel.NumColumns())
	}
	if rel.NumRows() < 300 {
		t.Errorf("rows = %d, want ~351", rel.NumRows())
	}
	for c := 0; c < rel.NumColumns(); c++ {
		if rel.Cardinality(c) < 2 || rel.Cardinality(c) > 14 {
			t.Errorf("column %d cardinality %d out of expected range", c, rel.Cardinality(c))
		}
	}
}

func TestNCVoterShape(t *testing.T) {
	rel := NCVoter(3000, 20)
	if rel.NumColumns() != 20 {
		t.Fatalf("columns = %d, want 20", rel.NumColumns())
	}
	p := pli.NewProvider(rel, nil)
	// Planted pairs: county_id → county_desc, status_cd → status_desc.
	ci, cd := rel.ColumnIndex("county_id"), rel.ColumnIndex("county_desc")
	if ci < 0 || cd < 0 || !p.CheckFD(bitset.New(ci), cd) {
		t.Error("county_id → county_desc missing")
	}
	zc, rc := rel.ColumnIndex("zip_code"), rel.ColumnIndex("res_city")
	if zc < 0 || rc < 0 || !p.CheckFD(bitset.New(zc), rc) {
		t.Error("zip_code → res_city missing")
	}
	// A narrower slice still works and keeps valid parents.
	small := NCVoter(500, 8)
	if small.NumColumns() != 8 {
		t.Errorf("slice columns = %d, want 8", small.NumColumns())
	}
}

func TestBalanceExactlyOneFD(t *testing.T) {
	rel, err := UCI("balance")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 625 {
		t.Fatalf("rows = %d, want 625 (full crossing)", rel.NumRows())
	}
	p := pli.NewProvider(rel, nil)
	fds := fd.Tane(p, false).FDs
	if len(fds) != 1 {
		t.Fatalf("balance FDs = %v, want exactly 1", fds)
	}
	if fds[0].LHS != bitset.New(0, 1, 2, 3) || fds[0].RHS != 4 {
		t.Errorf("balance FD = %v, want ABCD → class", fds[0])
	}
}

func TestIrisFewFDs(t *testing.T) {
	rel, err := UCI("iris")
	if err != nil {
		t.Fatal(err)
	}
	p := pli.NewProvider(rel, nil)
	n := len(fd.Tane(p, false).FDs)
	if n == 0 || n > 40 {
		t.Errorf("iris FD count = %d, want a small positive number", n)
	}
}

func TestUCITableCoverage(t *testing.T) {
	for _, info := range UCITable() {
		rel, err := UCI(info.Name)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if rel.NumColumns() != info.Cols {
			t.Errorf("%s: columns = %d, want %d", info.Name, rel.NumColumns(), info.Cols)
		}
		// Row counts may shrink slightly through duplicate removal but must
		// stay in the right ballpark.
		if rel.NumRows() < info.Rows*8/10 {
			t.Errorf("%s: rows = %d, want ≈%d", info.Name, rel.NumRows(), info.Rows)
		}
	}
}

func TestUCIUnknown(t *testing.T) {
	if _, err := UCI("nope"); err == nil {
		t.Error("expected error for unknown dataset")
	}
}
