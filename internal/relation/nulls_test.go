package relation

import (
	"testing"
)

func TestDistinctNullsEncoding(t *testing.T) {
	rows := [][]string{
		{"", "x"},
		{"", "y"},
		{"a", "x"},
	}
	r, err := NewWithOptions("t", []string{"A", "B"}, rows, Options{DistinctNulls: true})
	if err != nil {
		t.Fatal(err)
	}
	// The two NULLs in A must have distinct codes.
	col := r.Column(0)
	if col[0] == col[1] {
		t.Error("distinct NULLs must not share a dictionary code")
	}
	// Both decode to the empty string.
	if r.Value(0, 0) != NullValue || r.Value(1, 0) != NullValue {
		t.Error("NULL codes must decode to the empty string")
	}
	// Cardinality counts each NULL separately (3 values in A: two NULLs + a).
	if r.Cardinality(0) != 3 {
		t.Errorf("Cardinality = %d, want 3", r.Cardinality(0))
	}
	if r.NullCode(0) < 0 {
		t.Error("NullCode should point at the first NULL")
	}
}

func TestDistinctNullsAffectDuplicateRemoval(t *testing.T) {
	rows := [][]string{
		{"", "x"},
		{"", "x"},
	}
	equalNulls := mustNew("t", []string{"A", "B"}, rows)
	if equalNulls.NumRows() != 1 {
		t.Errorf("NULL = NULL: rows = %d, want 1 (duplicate removed)", equalNulls.NumRows())
	}
	distinct, err := NewWithOptions("t", []string{"A", "B"}, rows, Options{DistinctNulls: true})
	if err != nil {
		t.Fatal(err)
	}
	if distinct.NumRows() != 2 {
		t.Errorf("NULL ≠ NULL: rows = %d, want 2 (rows differ on A)", distinct.NumRows())
	}
}

func TestDistinctNullsSurviveProjection(t *testing.T) {
	rows := [][]string{
		{"", "x", "1"},
		{"", "x", "2"},
	}
	r, err := NewWithOptions("t", []string{"A", "B", "C"}, rows, Options{DistinctNulls: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Project([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Under SQL semantics the projected rows (NULL, x) and (NULL, x) stay
	// distinct; with default semantics they would collapse.
	if p.NumRows() != 2 {
		t.Errorf("projected rows = %d, want 2 under DistinctNulls", p.NumRows())
	}
	h := r.Head(1)
	if h.NumRows() != 1 {
		t.Errorf("head rows = %d", h.NumRows())
	}
}
