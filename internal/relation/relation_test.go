package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func rel(t *testing.T, rows [][]string) *Relation {
	t.Helper()
	names := make([]string, len(rows[0]))
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	r, err := New("t", names, rows)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBasicAccessors(t *testing.T) {
	r := rel(t, [][]string{
		{"w", "z", "x"},
		{"w", "x", "x"},
		{"x", "z", "w"},
		{"y", "z", "z"},
	})
	if r.NumColumns() != 3 || r.NumRows() != 4 {
		t.Fatalf("shape = %dx%d, want 4x3", r.NumRows(), r.NumColumns())
	}
	if r.Value(0, 0) != "w" || r.Value(3, 2) != "z" {
		t.Error("Value mismatch")
	}
	if got := r.Row(1); !reflect.DeepEqual(got, []string{"w", "x", "x"}) {
		t.Errorf("Row(1) = %v", got)
	}
	if r.Cardinality(0) != 3 || r.Cardinality(1) != 2 || r.Cardinality(2) != 3 {
		t.Error("Cardinality mismatch")
	}
	if r.ColumnIndex("B") != 1 || r.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex mismatch")
	}
	if r.ColumnName(2) != "C" {
		t.Error("ColumnName mismatch")
	}
	if r.AllColumns().Len() != 3 {
		t.Error("AllColumns mismatch")
	}
}

func TestDictionaryEncoding(t *testing.T) {
	r := rel(t, [][]string{{"a", "1"}, {"b", "1"}, {"a", "2"}, {"c", "1"}})
	col := r.Column(0)
	if !reflect.DeepEqual(col, []int32{0, 1, 0, 2}) {
		t.Errorf("codes = %v", col)
	}
	if got := r.DistinctValues(0); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("DistinctValues = %v", got)
	}
}

func TestDuplicateRowRemoval(t *testing.T) {
	r := rel(t, [][]string{
		{"a", "1"},
		{"a", "1"},
		{"b", "1"},
		{"a", "1"},
	})
	if r.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", r.NumRows())
	}
	if r.DuplicatesRemoved() != 2 {
		t.Errorf("DuplicatesRemoved = %d, want 2", r.DuplicatesRemoved())
	}
}

func TestNullHandling(t *testing.T) {
	r := rel(t, [][]string{{"", "x"}, {"a", "y"}})
	if r.NullCode(0) != 0 {
		t.Errorf("NullCode(0) = %d, want 0", r.NullCode(0))
	}
	if r.NullCode(1) != -1 {
		t.Errorf("NullCode(1) = %d, want -1", r.NullCode(1))
	}
}

func TestSortedDistinctValues(t *testing.T) {
	r := rel(t, [][]string{{"w"}, {"w"}, {"x"}, {"y"}, {"z"}, {"z"}})
	want := []string{"w", "x", "y", "z"}
	if got := r.SortedDistinctValues(0); !reflect.DeepEqual(got, want) {
		t.Errorf("SortedDistinctValues = %v, want %v", got, want)
	}
	// Second call hits the cache and must agree.
	if got := r.SortedDistinctValues(0); !reflect.DeepEqual(got, want) {
		t.Errorf("cached SortedDistinctValues = %v, want %v", got, want)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := New("t", nil, nil); err == nil {
		t.Error("expected error for zero columns")
	}
	if _, err := New("t", []string{"A"}, [][]string{{"a", "b"}}); err == nil {
		t.Error("expected error for ragged row")
	}
	wide := make([]string, 300)
	for i := range wide {
		wide[i] = string(rune('a' + i%26))
	}
	if _, err := New("t", wide, nil); err == nil {
		t.Error("expected error for too many columns")
	}
}

func TestProject(t *testing.T) {
	r := rel(t, [][]string{
		{"a", "1", "x"},
		{"a", "2", "x"},
		{"b", "1", "x"},
	})
	p, err := r.Project([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.ColumnNames(), []string{"C", "A"}) {
		t.Errorf("projected names = %v", p.ColumnNames())
	}
	// Projection drops column B, making rows 0 and 1 duplicates.
	if p.NumRows() != 2 {
		t.Errorf("projected rows = %d, want 2", p.NumRows())
	}
	if _, err := r.Project([]int{5}); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestPrefixAndHead(t *testing.T) {
	r := rel(t, [][]string{
		{"a", "1"},
		{"b", "1"},
		{"c", "2"},
	})
	p, err := r.Prefix(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumColumns() != 1 || p.NumRows() != 3 {
		t.Errorf("prefix shape = %dx%d", p.NumRows(), p.NumColumns())
	}
	h := r.Head(2)
	if h.NumRows() != 2 {
		t.Errorf("head rows = %d", h.NumRows())
	}
	// Head must re-encode: column B of the first two rows has one distinct value.
	if h.Cardinality(1) != 1 {
		t.Errorf("head cardinality = %d, want 1", h.Cardinality(1))
	}
	if got := r.Head(99); got != r {
		t.Error("Head beyond length should return the receiver")
	}
}

func TestRowsRoundTrip(t *testing.T) {
	rows := [][]string{{"a", "1"}, {"b", "2"}}
	r := rel(t, rows)
	if got := r.Rows(); !reflect.DeepEqual(got, rows) {
		t.Errorf("Rows = %v", got)
	}
}

func TestReadCSV(t *testing.T) {
	in := "A,B\n1,x\n2,y\n2,y\n"
	r, err := ReadCSV("mem", strings.NewReader(in), CSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.ColumnNames(), []string{"A", "B"}) {
		t.Errorf("names = %v", r.ColumnNames())
	}
	if r.NumRows() != 2 { // duplicate removed
		t.Errorf("rows = %d, want 2", r.NumRows())
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	r, err := ReadCSV("mem", strings.NewReader("1,x\n2,y\n"), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.ColumnNames(), []string{"col0", "col1"}) {
		t.Errorf("names = %v", r.ColumnNames())
	}
}

func TestReadCSVMaxRowsAndSeparator(t *testing.T) {
	r, err := ReadCSV("mem", strings.NewReader("a;b\nc;d\ne;f\n"), CSVOptions{Comma: ';', MaxRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", r.NumRows())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("mem", strings.NewReader(""), CSVOptions{}); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := ReadCSV("mem", strings.NewReader("A,B\n1\n"), CSVOptions{HasHeader: true}); err == nil {
		t.Error("expected error for ragged row")
	}
	if _, err := ReadCSV("mem", strings.NewReader(""), CSVOptions{HasHeader: true}); err == nil {
		t.Error("expected error for missing header")
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	r := rel(t, [][]string{{"a", "1"}, {"b", "2"}})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("mem", &buf, CSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Rows(), r.Rows()) {
		t.Errorf("round trip mismatch: %v vs %v", back.Rows(), r.Rows())
	}
}

// Property: after construction no two rows are identical, and every value
// round-trips through the dictionary encoding.
func TestQuickNoDuplicateRows(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			rows := make([][]string, 1+rnd.Intn(40))
			cols := 1 + rnd.Intn(5)
			for i := range rows {
				row := make([]string, cols)
				for c := range row {
					row[c] = string(rune('a' + rnd.Intn(3)))
				}
				rows[i] = row
			}
			vals[0] = reflect.ValueOf(rows)
		},
	}
	if err := quick.Check(func(rows [][]string) bool {
		names := make([]string, len(rows[0]))
		for i := range names {
			names[i] = string(rune('A' + i))
		}
		r, err := New("q", names, rows)
		if err != nil {
			return false
		}
		seen := map[string]bool{}
		for i := 0; i < r.NumRows(); i++ {
			key := strings.Join(r.Row(i), "\x00")
			if seen[key] {
				return false
			}
			seen[key] = true
		}
		return r.NumRows()+r.DuplicatesRemoved() == len(rows)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// mustNew is New for statically known-good inputs.
func mustNew(name string, columnNames []string, rows [][]string) *Relation {
	r, err := New(name, columnNames, rows)
	if err != nil {
		panic(err)
	}
	return r
}

// ColumnIndex returns the index of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	for i, n := range r.colName {
		if n == name {
			return i
		}
	}
	return -1
}

// NullCode returns the dictionary code of NULL in column c, or -1 if the
// column has no NULLs.
func (r *Relation) NullCode(c int) int32 { return r.nullID[c] }

// Project returns a new relation containing only the given columns, in the
// given order. Duplicate rows arising from the projection are removed, which
// mirrors how the paper slices datasets for the scalability experiments.
func (r *Relation) Project(cols []int) (*Relation, error) {
	names := make([]string, len(cols))
	for i, c := range cols {
		if c < 0 || c >= r.NumColumns() {
			return nil, fmt.Errorf("relation %q: project column %d out of range", r.name, c)
		}
		names[i] = r.colName[c]
	}
	rows := make([][]string, r.NumRows())
	for i := range rows {
		row := make([]string, len(cols))
		for j, c := range cols {
			row[j] = r.dicts[c][r.cols[c][i]]
		}
		rows[i] = row
	}
	return NewWithOptions(r.name, names, rows, r.opts)
}

// Prefix returns the relation restricted to its first cols columns (after
// duplicate removal).
func (r *Relation) Prefix(cols int) (*Relation, error) {
	idx := make([]int, cols)
	for i := range idx {
		idx[i] = i
	}
	return r.Project(idx)
}

// Head returns the relation restricted to its first rows rows, re-encoded so
// that dictionaries and cardinalities reflect only the retained rows.
// Non-positive row counts clamp to an empty relation.
func (r *Relation) Head(rows int) *Relation {
	if rows >= r.NumRows() {
		return r
	}
	if rows < 0 {
		rows = 0
	}
	data := make([][]string, rows)
	for i := range data {
		data[i] = r.Row(i)
	}
	out, err := NewWithOptions(r.name, r.colName, data, r.opts)
	if err != nil {
		// Unreachable: the source relation already validated the schema.
		panic(err)
	}
	return out
}
