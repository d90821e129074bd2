package oracle

import (
	"reflect"
	"testing"

	"holistic/internal/bitset"
)

func TestMustRelationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRelation should panic on invalid input")
		}
	}()
	MustRelation("t", nil, nil)
}

// TestFDsConstantColumn checks that the search from the empty left-hand side
// reports a constant column as ∅ → A and nothing else with A on the right,
// and never puts a constant column into a minimal left-hand side.
func TestFDsConstantColumn(t *testing.T) {
	rel := MustRelation("t", []string{"A", "B", "C"}, [][]string{
		{"1", "k", "x"},
		{"2", "k", "x"},
		{"3", "k", "y"},
	})
	want := []FD{
		{LHS: bitset.New(), RHS: 1},
		{LHS: bitset.New(0), RHS: 2},
	}
	if got := FDs(rel); !reflect.DeepEqual(got, want) {
		t.Errorf("FDs = %v, want %v", got, want)
	}
	if got := UCCs(rel); !reflect.DeepEqual(got, []bitset.Set{bitset.New(0)}) {
		t.Errorf("UCCs = %v, want [A]", got)
	}
}
