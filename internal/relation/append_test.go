package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// equalRelations asserts that two relations agree on schema, dictionaries,
// code vectors, NULL codes, and sorted value lists.
func equalRelations(t *testing.T, got, want *Relation) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows: got %d want %d", got.NumRows(), want.NumRows())
	}
	if got.NumColumns() != want.NumColumns() {
		t.Fatalf("cols: got %d want %d", got.NumColumns(), want.NumColumns())
	}
	for c := 0; c < want.NumColumns(); c++ {
		if !reflect.DeepEqual(got.DistinctValues(c), want.DistinctValues(c)) {
			t.Fatalf("column %d dicts differ:\ngot  %v\nwant %v", c, got.DistinctValues(c), want.DistinctValues(c))
		}
		if !reflect.DeepEqual(got.Column(c), want.Column(c)) {
			t.Fatalf("column %d codes differ:\ngot  %v\nwant %v", c, got.Column(c), want.Column(c))
		}
		if got.NullCode(c) != want.NullCode(c) {
			t.Fatalf("column %d null code: got %d want %d", c, got.NullCode(c), want.NullCode(c))
		}
		if !reflect.DeepEqual(got.SortedDistinctValues(c), want.SortedDistinctValues(c)) {
			t.Fatalf("column %d sorted values differ:\ngot  %v\nwant %v", c, got.SortedDistinctValues(c), want.SortedDistinctValues(c))
		}
	}
	if got.DuplicatesRemoved() != want.DuplicatesRemoved() {
		t.Fatalf("dupRemoved: got %d want %d", got.DuplicatesRemoved(), want.DuplicatesRemoved())
	}
}

func randomRows(rng *rand.Rand, rows, cols int, nullRate float64) [][]string {
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, cols)
		for c := range row {
			if rng.Float64() < nullRate {
				row[c] = ""
			} else {
				row[c] = fmt.Sprintf("v%d", rng.Intn(3+c*2))
			}
		}
		data[i] = row
	}
	return data
}

// TestAppendEquivalence is the relation-layer differential spine: appending
// batches in place must yield a relation identical to a from-scratch build on
// the concatenated rows, for both NULL semantics and regardless of whether
// the sorted value lists were built before or after the append.
func TestAppendEquivalence(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	for _, distinctNulls := range []bool{false, true} {
		for _, sortEarly := range []bool{false, true} {
			t.Run(fmt.Sprintf("distinctNulls=%v/sortEarly=%v", distinctNulls, sortEarly), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				opts := Options{DistinctNulls: distinctNulls}
				base := randomRows(rng, 40, len(names), 0.15)
				inc, err := NewWithOptions("t", names, base, opts)
				if err != nil {
					t.Fatal(err)
				}
				all := append([][]string(nil), base...)
				for batch := 0; batch < 4; batch++ {
					if sortEarly {
						inc.EnsureSortedValues()
					}
					rows := randomRows(rng, 5+batch*3, len(names), 0.15)
					// Force some exact duplicates of existing rows.
					rows = append(rows, all[rng.Intn(len(all))], rows[0])
					oldRows := inc.NumRows()
					delta, err := inc.Append(rows)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, rows...)
					scratch, err := NewWithOptions("t", names, all, opts)
					if err != nil {
						t.Fatal(err)
					}
					equalRelations(t, inc, scratch)
					if oldRows+delta.Appended != inc.NumRows() {
						t.Fatalf("delta rows: old %d + appended %d != %d", oldRows, delta.Appended, inc.NumRows())
					}
					for c := range names {
						if delta.OldCard[c] > inc.Cardinality(c) {
							t.Fatalf("column %d OldCard %d exceeds cardinality %d", c, delta.OldCard[c], inc.Cardinality(c))
						}
					}
				}
			})
		}
	}
}

func TestAppendRejectsRaggedRows(t *testing.T) {
	r := MustNew("t", []string{"a", "b"}, [][]string{{"1", "2"}})
	if _, err := r.Append([][]string{{"1", "2", "3"}}); err == nil {
		t.Fatal("want error for ragged appended row")
	}
	if r.NumRows() != 1 {
		t.Fatalf("failed append mutated the relation: %d rows", r.NumRows())
	}
}

func TestLookup(t *testing.T) {
	r := MustNew("t", []string{"a"}, [][]string{{"x"}, {"y"}})
	if code, ok := r.Lookup(0, "y"); !ok || r.DistinctValues(0)[code] != "y" {
		t.Fatalf("Lookup(y) = %d, %v", code, ok)
	}
	if _, ok := r.Lookup(0, "z"); ok {
		t.Fatal("Lookup(z) should miss")
	}
	if _, err := r.Append([][]string{{"z"}}); err != nil {
		t.Fatal(err)
	}
	if code, ok := r.Lookup(0, "z"); !ok || code != 2 {
		t.Fatalf("Lookup(z) after append = %d, %v", code, ok)
	}
}

// TestHeadClampsNonPositive is the regression test for the Head panic on
// rows <= 0: both must clamp to an empty relation with the schema intact.
func TestHeadClampsNonPositive(t *testing.T) {
	r := MustNew("t", []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	for _, rows := range []int{0, -1, -100} {
		h := r.Head(rows)
		if h.NumRows() != 0 {
			t.Fatalf("Head(%d): got %d rows, want 0", rows, h.NumRows())
		}
		if h.NumColumns() != 2 {
			t.Fatalf("Head(%d): got %d columns, want 2", rows, h.NumColumns())
		}
	}
}
