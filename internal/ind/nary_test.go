package ind

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"holistic/internal/oracle"
	"holistic/internal/relation"
)

// naryOracle checks every candidate attribute-sequence pair up to maxArity
// by explicit tuple containment.
func naryOracle(rel *relation.Relation, opts Options, maxArity int) []NaryIND {
	n := rel.NumColumns()
	if maxArity < 1 || maxArity > n {
		maxArity = n
	}
	var out []NaryIND
	var dep, ref []int
	var buildRef func(arity int)
	var buildDep func(arity int)

	usedRef := make([]bool, n)
	buildRef = func(arity int) {
		if len(ref) == arity {
			cand := NaryIND{
				Dependent:  append([]int(nil), dep...),
				Referenced: append([]int(nil), ref...),
			}
			same := true
			for i := range cand.Dependent {
				if cand.Dependent[i] != cand.Referenced[i] {
					same = false
				}
			}
			if !same && checkNary(rel, cand, opts) {
				out = append(out, cand)
			}
			return
		}
		for c := 0; c < n; c++ {
			if usedRef[c] {
				continue
			}
			usedRef[c] = true
			ref = append(ref, c)
			buildRef(arity)
			ref = ref[:len(ref)-1]
			usedRef[c] = false
		}
	}
	usedDep := make([]bool, n)
	buildDep = func(arity int) {
		if len(dep) == arity {
			buildRef(arity)
			return
		}
		start := 0
		if len(dep) > 0 {
			start = dep[len(dep)-1] + 1 // dependent side kept sorted
		}
		for c := start; c < n; c++ {
			if usedDep[c] {
				continue
			}
			usedDep[c] = true
			dep = append(dep, c)
			buildDep(arity)
			dep = dep[:len(dep)-1]
			usedDep[c] = false
		}
	}
	for arity := 1; arity <= maxArity; arity++ {
		var level []NaryIND
		before := len(out)
		buildDep(arity)
		level = out[before:]
		SortNary(level)
	}
	return out
}

func TestNaryKnownExample(t *testing.T) {
	// Columns: A ⊆ C and B ⊆ D positionally, and the pairs (A,B) ⊆ (C,D).
	rel := oracle.MustRelation("t", []string{"A", "B", "C", "D"}, [][]string{
		{"1", "x", "1", "x"},
		{"2", "y", "2", "y"},
		{"", "", "3", "z"},
	})
	// Row 3 uses empty strings on A,B; with IgnoreNulls they don't count.
	got := Nary(rel, Options{IgnoreNulls: true}, 2)
	found := map[string]bool{}
	for _, d := range got {
		found[d.String()] = true
	}
	for _, want := range []string{"[A] ⊆ [C]", "[B] ⊆ [D]", "[A B] ⊆ [C D]"} {
		if !found[want] {
			t.Errorf("missing %s in %v", want, got)
		}
	}
	// The cross pair (A,B) ⊆ (D,C) must not hold.
	if found["[A B] ⊆ [D C]"] {
		t.Error("unexpected [A B] ⊆ [D C]")
	}
}

func TestNaryBinaryInvalidWhenPairsMisalign(t *testing.T) {
	// A ⊆ C and B ⊆ D hold value-wise, but the pair combination does not:
	// (1,x) never appears as a (C,D) tuple.
	rel := oracle.MustRelation("t", []string{"A", "B", "C", "D"}, [][]string{
		{"1", "x", "1", "y"},
		{"2", "y", "2", "x"},
	})
	got := Nary(rel, Options{}, 2)
	for _, d := range got {
		if len(d.Dependent) == 2 && d.Dependent[0] == 0 && d.Dependent[1] == 1 &&
			d.Referenced[0] == 2 && d.Referenced[1] == 3 {
			t.Errorf("pair IND %v should be invalid", d)
		}
	}
}

func TestNaryArityLimit(t *testing.T) {
	rel := oracle.MustRelation("t", []string{"A", "B"}, [][]string{
		{"1", "1"},
		{"2", "2"},
	})
	got := Nary(rel, Options{}, 1)
	for _, d := range got {
		if len(d.Dependent) != 1 {
			t.Errorf("arity limit violated: %v", d)
		}
	}
}

func TestNaryString(t *testing.T) {
	d := NaryIND{Dependent: []int{0, 1}, Referenced: []int{2, 3}}
	if got := d.String(); got != "[A B] ⊆ [C D]" {
		t.Errorf("String = %q", got)
	}
}

// Property: the level-wise discovery agrees with the brute-force oracle on
// random relations, for the canonicalised (sorted-dependent) candidates.
func TestQuickNaryMatchesOracle(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			cols := 2 + rnd.Intn(3)
			rows := 1 + rnd.Intn(12)
			names := make([]string, cols)
			for i := range names {
				names[i] = string(rune('A' + i))
			}
			data := make([][]string, rows)
			for i := range data {
				row := make([]string, cols)
				for c := range row {
					row[c] = fmt.Sprint(rnd.Intn(3))
				}
				data[i] = row
			}
			vals[0] = reflect.ValueOf(oracle.MustRelation("rand", names, data))
		},
	}
	if err := quick.Check(func(rel *relation.Relation) bool {
		got := Nary(rel, Options{}, 3)
		want := naryOracle(rel, Options{}, 3)
		key := func(d NaryIND) string { return d.String() }
		gm, wm := map[string]bool{}, map[string]bool{}
		for _, d := range got {
			gm[key(d)] = true
		}
		for _, d := range want {
			wm[key(d)] = true
		}
		if len(gm) != len(wm) {
			return false
		}
		for k := range wm {
			if !gm[k] {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestPairKeyDistinct(t *testing.T) {
	a := NaryIND{Dependent: []int{0, 1}, Referenced: []int{2, 3}}
	b := NaryIND{Dependent: []int{0, 1}, Referenced: []int{3, 2}}
	if pairKey(a) == pairKey(b) {
		t.Error("pair keys must distinguish referenced order")
	}
	if !strings.Contains(a.String(), "⊆") {
		t.Error("formatting sanity")
	}
}
