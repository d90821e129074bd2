package fd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"holistic/internal/bitset"
	"holistic/internal/pli"
)

func TestG3Exact(t *testing.T) {
	p := provider(t, []string{"A", "B"}, [][]string{
		{"1", "x"},
		{"1", "x"},
		{"2", "y"},
	})
	if g := G3(p, bitset.New(0), 1); g != 0 {
		t.Errorf("g3 of exact FD = %v, want 0", g)
	}
}

func TestG3Violations(t *testing.T) {
	// A → B violated on exactly one of four rows: the A=1 cluster has B
	// values x, x2, x → one removal repairs it. A third column keeps the
	// two (1, x) rows distinct through duplicate removal.
	p := provider(t, []string{"A", "B", "C"}, [][]string{
		{"1", "x", "r1"},
		{"1", "x2", "r2"},
		{"1", "x", "r3"},
		{"2", "y", "r4"},
	})
	// Cluster of A=1 has B ∈ {x, x2, x}: majority 2, violations 1.
	want := 1.0 / 4.0
	if g := G3(p, bitset.New(0), 1); math.Abs(g-want) > 1e-9 {
		t.Errorf("g3 = %v, want %v", g, want)
	}
}

func TestG3TrivialAndEmpty(t *testing.T) {
	p := provider(t, []string{"A", "B"}, [][]string{{"1", "x"}, {"2", "y"}})
	if g := G3(p, bitset.New(1), 1); g != 0 {
		t.Error("trivial FD must have zero error")
	}
	// ∅ → B on two distinct values: one of two rows must go.
	if g := G3(p, bitset.Set{}, 1); math.Abs(g-0.5) > 1e-9 {
		t.Errorf("g3(∅→B) = %v, want 0.5", g)
	}
}

func TestApproximateEpsZeroMatchesExact(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		p := randomProvider(rnd, 5, 25, 3)
		exact := bruteFDs(p)
		approx := ApproximateFDs(p, 0, 0)
		var got []FD
		for _, f := range approx {
			if f.Error != 0 {
				t.Fatalf("eps=0 result with non-zero error: %v", f)
			}
			got = append(got, FD{LHS: f.LHS, RHS: f.RHS})
		}
		Sort(got)
		if !reflect.DeepEqual(got, exact) {
			t.Fatalf("eps=0 mismatch:\n got %v\nwant %v\nrows %v", got, exact, p.Relation().Rows())
		}
	}
}

func TestApproximateLooseEps(t *testing.T) {
	// With eps = 1 every singleton lhs (or ∅) qualifies for every rhs.
	p := provider(t, []string{"A", "B"}, [][]string{
		{"1", "x"},
		{"2", "y"},
		{"1", "z"},
	})
	out := ApproximateFDs(p, 1, 0)
	for _, f := range out {
		if !f.LHS.IsEmpty() {
			t.Errorf("eps=1 should already accept the empty lhs, got %v", f)
		}
	}
	if len(out) != 2 {
		t.Errorf("got %d approximate FDs, want 2 (∅→A, ∅→B)", len(out))
	}
}

func TestApproximateMaxLHS(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	p := randomProvider(rnd, 5, 20, 2)
	for _, f := range ApproximateFDs(p, 0.05, 2) {
		if f.LHS.Len() > 2 {
			t.Errorf("maxLHS violated: %v", f)
		}
	}
}

// Property: g3 never increases when the lhs grows (monotonicity that the
// level-wise pruning relies on), and reported errors are within [0, eps].
func TestQuickG3Monotone(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomProvider(rnd, 5, 25, 3))
			vals[1] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(p *pli.Provider, seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := p.Relation().NumColumns()
		a := rnd.Intn(n)
		var lhs bitset.Set
		for c := 0; c < n; c++ {
			if c != a && rnd.Intn(2) == 0 {
				lhs = lhs.With(c)
			}
		}
		g1 := G3(p, lhs, a)
		// Add one more column.
		for c := 0; c < n; c++ {
			if c != a && !lhs.Has(c) {
				lhs = lhs.With(c)
				break
			}
		}
		g2 := G3(p, lhs, a)
		return g2 <= g1+1e-12
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestApproxFDString(t *testing.T) {
	f := ApproxFD{LHS: bitset.FromLetters("AB"), RHS: 2, Error: 0.125}
	if got := f.String(); got != "AB → C (g3=0.125)" {
		t.Errorf("String = %q", got)
	}
}
