package ind

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"holistic/internal/oracle"
	"holistic/internal/relation"
)

// bruteINDs computes unary INDs by explicit value-set containment.
func bruteINDs(rel *relation.Relation, opts Options) []IND {
	n := rel.NumColumns()
	valueSets := make([]map[string]bool, n)
	for c := 0; c < n; c++ {
		valueSets[c] = map[string]bool{}
		for _, v := range rel.DistinctValues(c) {
			if opts.IgnoreNulls && v == relation.NullValue {
				continue
			}
			valueSets[c][v] = true
		}
	}
	var out []IND
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			ok := true
			for v := range valueSets[a] {
				if !valueSets[b][v] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, IND{Dependent: a, Referenced: b})
			}
		}
	}
	Sort(out)
	return out
}

// TestSpiderPaperExample reproduces Table 1 of the paper: columns
// A = (w,w,x,y), B = (z,x,z,z), C = (x,x,w,z). SPIDER's merge over the sorted
// duplicate-free lists leaves exactly B ⊆ C.
func TestSpiderPaperExample(t *testing.T) {
	rel := oracle.MustRelation("t1", []string{"A", "B", "C"}, [][]string{
		{"w", "z", "x"},
		{"w", "x", "x"},
		{"x", "z", "w"},
		{"y", "z", "z"},
	})
	// Sorting phase output (Table 1.2): duplicate-free sorted lists.
	if got := rel.SortedDistinctValues(0); !reflect.DeepEqual(got, []string{"w", "x", "y"}) {
		t.Errorf("sorted list A = %v", got)
	}
	if got := rel.SortedDistinctValues(1); !reflect.DeepEqual(got, []string{"x", "z"}) {
		t.Errorf("sorted list B = %v", got)
	}
	if got := rel.SortedDistinctValues(2); !reflect.DeepEqual(got, []string{"w", "x", "z"}) {
		t.Errorf("sorted list C = %v", got)
	}
	want := []IND{{Dependent: 1, Referenced: 2}} // B ⊆ C
	if got := Spider(rel, Options{}); !reflect.DeepEqual(got, want) {
		t.Errorf("Spider = %v, want %v", got, want)
	}
	if got := invertedIndex(rel, Options{}); !reflect.DeepEqual(got, want) {
		t.Errorf("InvertedIndex = %v, want %v", got, want)
	}
}

func TestNoINDs(t *testing.T) {
	rel := oracle.MustRelation("t", []string{"A", "B"}, [][]string{
		{"1", "x"},
		{"2", "y"},
	})
	if got := Spider(rel, Options{}); len(got) != 0 {
		t.Errorf("Spider = %v, want none", got)
	}
}

func TestMutualInclusion(t *testing.T) {
	rel := oracle.MustRelation("t", []string{"A", "B"}, [][]string{
		{"1", "2"},
		{"2", "1"},
	})
	want := []IND{{0, 1}, {1, 0}}
	if got := Spider(rel, Options{}); !reflect.DeepEqual(got, want) {
		t.Errorf("Spider = %v, want %v", got, want)
	}
}

func TestSingleColumn(t *testing.T) {
	rel := oracle.MustRelation("t", []string{"A"}, [][]string{{"1"}, {"2"}})
	if got := Spider(rel, Options{}); len(got) != 0 {
		t.Errorf("Spider = %v, want none", got)
	}
}

func TestIgnoreNulls(t *testing.T) {
	rel := oracle.MustRelation("t", []string{"A", "B"}, [][]string{
		{"", "1"},
		{"1", "2"},
		{"2", "3"},
	})
	// With NULL as a value, A ⊄ B (B has no NULL) and B ⊄ A (3 ∉ A).
	if got := Spider(rel, Options{}); len(got) != 0 {
		t.Errorf("Spider with nulls = %v, want none", got)
	}
	// Ignoring NULLs, A = {1,2} ⊆ B = {1,2,3}.
	want := []IND{{0, 1}}
	if got := Spider(rel, Options{IgnoreNulls: true}); !reflect.DeepEqual(got, want) {
		t.Errorf("Spider ignore-nulls = %v, want %v", got, want)
	}
	if got := invertedIndex(rel, Options{IgnoreNulls: true}); !reflect.DeepEqual(got, want) {
		t.Errorf("InvertedIndex ignore-nulls = %v, want %v", got, want)
	}
}

func TestAllNullColumnIgnoreNulls(t *testing.T) {
	rel := oracle.MustRelation("t", []string{"A", "B"}, [][]string{
		{"", "1"},
		{"", "2"},
	})
	// Relation dedup keeps both rows (B differs). With IgnoreNulls, A has no
	// values, so A ⊆ B vacuously; B ⊄ A.
	want := []IND{{0, 1}}
	if got := Spider(rel, Options{IgnoreNulls: true}); !reflect.DeepEqual(got, want) {
		t.Errorf("Spider = %v, want %v", got, want)
	}
}

func TestINDString(t *testing.T) {
	if got := (IND{0, 2}).String(); got != "A ⊆ C" {
		t.Errorf("String = %q", got)
	}
	if got := (IND{26, 30}).String(); got != "col26 ⊆ col30" {
		t.Errorf("String = %q", got)
	}
}

func randomRelation(rnd *rand.Rand) *relation.Relation {
	cols := 2 + rnd.Intn(5)
	rows := 1 + rnd.Intn(30)
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, cols)
		for c := range row {
			// Small shared value domain so containments actually occur.
			if rnd.Intn(10) == 0 {
				row[c] = "" // sprinkle NULLs
			} else {
				row[c] = fmt.Sprint(rnd.Intn(5))
			}
		}
		data[i] = row
	}
	return oracle.MustRelation("rand", names, data)
}

// Property: SPIDER, the inverted index and the brute-force oracle agree,
// with and without NULL handling.
func TestQuickAlgorithmsAgree(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 250,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomRelation(rnd))
			vals[1] = reflect.ValueOf(rnd.Intn(2) == 0)
		},
	}
	if err := quick.Check(func(rel *relation.Relation, ignoreNulls bool) bool {
		opts := Options{IgnoreNulls: ignoreNulls}
		want := bruteINDs(rel, opts)
		return reflect.DeepEqual(Spider(rel, opts), want) &&
			reflect.DeepEqual(invertedIndex(rel, opts), want)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// invertedIndex discovers all unary INDs with the De Marchi et al. approach
// (paper Sec. 7), SPIDER's differential reference: an inverted index from
// each value to the set of columns containing it; the candidate set of every
// column is intersected with the column group of each of its values.
func invertedIndex(rel *relation.Relation, opts Options) []IND {
	n := rel.NumColumns()
	index := make(map[string][]int)
	for c := 0; c < n; c++ {
		for _, v := range rel.DistinctValues(c) {
			if opts.IgnoreNulls && v == relation.NullValue {
				continue
			}
			index[v] = append(index[v], c)
		}
	}
	cs := newCandidateSets(n)
	for _, group := range index {
		if cs.pending == 0 {
			break
		}
		cs.restrict(group)
	}
	return cs.results()
}
