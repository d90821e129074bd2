package walker

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"holistic/internal/bitset"
)

// run learns pred over the subsets of base without a deadline.
func run(base bitset.Set, pred Predicate, opts Options) Result {
	res, _ := RunContext(context.Background(), base, pred, opts)
	return res
}

// naive computes the minimal true and maximal false sets of a monotone
// predicate by full enumeration.
func naive(base bitset.Set, pred Predicate) ([]bitset.Set, []bitset.Set) {
	var all []bitset.Set
	n := base.Len()
	for k := 1; k <= n; k++ {
		base.SubsetsOfSize(k, func(s bitset.Set) bool {
			all = append(all, s)
			return true
		})
	}
	var minTrue, maxFalse []bitset.Set
	for _, s := range all {
		v := pred(s)
		if v {
			minimal := true
			for _, sub := range s.DirectSubsets() {
				if !sub.IsEmpty() && pred(sub) {
					minimal = false
					break
				}
			}
			if minimal {
				minTrue = append(minTrue, s)
			}
		} else {
			maximal := true
			base.Diff(s).ForEach(func(c int) {
				if !pred(s.With(c)) {
					maximal = false
				}
			})
			if maximal {
				maxFalse = append(maxFalse, s)
			}
		}
	}
	bitset.Sort(minTrue)
	bitset.Sort(maxFalse)
	return minTrue, maxFalse
}

// monotonePred builds a random monotone predicate from generator sets:
// s is true iff it contains one of the generators.
func monotonePred(gens []bitset.Set) Predicate {
	return func(s bitset.Set) bool {
		for _, g := range gens {
			if g.IsSubsetOf(s) {
				return true
			}
		}
		return false
	}
}

func TestSimplePredicate(t *testing.T) {
	base := bitset.FromLetters("ABCD")
	gens := []bitset.Set{bitset.FromLetters("AB"), bitset.FromLetters("C")}
	res := run(base, monotonePred(gens), Options{Seed: 1})
	wantTrue := []bitset.Set{bitset.FromLetters("C"), bitset.FromLetters("AB")}
	if !reflect.DeepEqual(res.MinimalTrue, wantTrue) {
		t.Errorf("MinimalTrue = %v, want %v", res.MinimalTrue, wantTrue)
	}
	// Maximal false: ABD minus... sets avoiding C and not containing AB:
	// {A,B,D} without both A and B: AD, BD are false, ABD contains AB → true.
	wantFalse := []bitset.Set{bitset.FromLetters("AD"), bitset.FromLetters("BD")}
	if !reflect.DeepEqual(res.MaximalFalse, wantFalse) {
		t.Errorf("MaximalFalse = %v, want %v", res.MaximalFalse, wantFalse)
	}
}

func TestAllTrue(t *testing.T) {
	base := bitset.FromLetters("ABC")
	res := run(base, func(bitset.Set) bool { return true }, Options{Seed: 0})
	want := []bitset.Set{bitset.FromLetters("A"), bitset.FromLetters("B"), bitset.FromLetters("C")}
	if !reflect.DeepEqual(res.MinimalTrue, want) {
		t.Errorf("MinimalTrue = %v, want %v", res.MinimalTrue, want)
	}
	if len(res.MaximalFalse) != 0 {
		t.Errorf("MaximalFalse = %v, want none", res.MaximalFalse)
	}
}

func TestAllFalse(t *testing.T) {
	base := bitset.FromLetters("ABC")
	res := run(base, func(bitset.Set) bool { return false }, Options{Seed: 0})
	if len(res.MinimalTrue) != 0 {
		t.Errorf("MinimalTrue = %v, want none", res.MinimalTrue)
	}
	if !reflect.DeepEqual(res.MaximalFalse, []bitset.Set{base}) {
		t.Errorf("MaximalFalse = %v, want [%v]", res.MaximalFalse, base)
	}
}

func TestEmptyBase(t *testing.T) {
	res := run(bitset.Set{}, func(bitset.Set) bool { return true }, Options{})
	if len(res.MinimalTrue) != 0 || len(res.MaximalFalse) != 0 || res.Checks != 0 {
		t.Errorf("empty base should produce empty result, got %+v", res)
	}
}

func TestKnownCertificatesReduceChecks(t *testing.T) {
	base := bitset.FromLetters("ABCDE")
	gens := []bitset.Set{bitset.FromLetters("AB"), bitset.FromLetters("CD")}
	pred := monotonePred(gens)

	plain := run(base, pred, Options{Seed: 7})
	seeded := run(base, pred, Options{
		Seed:      7,
		KnownTrue: []bitset.Set{bitset.FromLetters("ABE")},
		// DE is genuinely false (contains neither AB nor CD).
		KnownFalse: []bitset.Set{bitset.FromLetters("DE")},
	})
	if !reflect.DeepEqual(plain.MinimalTrue, seeded.MinimalTrue) {
		t.Errorf("seeded MinimalTrue = %v, want %v", seeded.MinimalTrue, plain.MinimalTrue)
	}
	if !reflect.DeepEqual(plain.MaximalFalse, seeded.MaximalFalse) {
		t.Errorf("seeded MaximalFalse = %v, want %v", seeded.MaximalFalse, plain.MaximalFalse)
	}
}

func TestNonFullBase(t *testing.T) {
	// Base restricted to BCD within a wider column space: results must stay
	// inside the base.
	base := bitset.FromLetters("BCD")
	gens := []bitset.Set{bitset.FromLetters("BD")}
	res := run(base, monotonePred(gens), Options{Seed: 3})
	if !reflect.DeepEqual(res.MinimalTrue, gens) {
		t.Errorf("MinimalTrue = %v, want %v", res.MinimalTrue, gens)
	}
	for _, m := range res.MaximalFalse {
		if !m.IsSubsetOf(base) {
			t.Errorf("MaximalFalse %v escapes base %v", m, base)
		}
	}
}

func TestMinimalHittingSets(t *testing.T) {
	ctx := context.Background()
	// Families {A,B}, {B,C}: minimal hitting sets are {B}, {A,C}.
	fams := []bitset.Set{bitset.FromLetters("AB"), bitset.FromLetters("BC")}
	got, err := MinimalHittingSets(ctx, fams, bitset.Full(3))
	want := []bitset.Set{bitset.FromLetters("B"), bitset.FromLetters("AC")}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("hitting sets = %v, %v, want %v", got, err, want)
	}
	// An empty family set can never be hit.
	if got, err := MinimalHittingSets(ctx, []bitset.Set{{}}, bitset.Full(3)); err != nil || got != nil {
		t.Errorf("hitting sets with empty member = %v, %v, want nil", got, err)
	}
	// No constraints: the empty set is the unique minimal hitting set.
	if got, err := MinimalHittingSets(ctx, nil, bitset.Full(3)); err != nil || len(got) != 1 || !got[0].IsEmpty() {
		t.Errorf("hitting sets of empty family = %v, %v", got, err)
	}
}

// Property: the walk agrees with full enumeration for random monotone
// predicates, random bases and random seeds.
func TestQuickWalkerMatchesNaive(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 250,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			n := 2 + rnd.Intn(6)
			var base bitset.Set
			for c := 0; c < n; c++ {
				base = base.With(c + rnd.Intn(2)) // occasionally sparse bases
			}
			var gens []bitset.Set
			for i := 0; i < rnd.Intn(5); i++ {
				var g bitset.Set
				base.ForEach(func(c int) {
					if rnd.Intn(3) == 0 {
						g = g.With(c)
					}
				})
				if !g.IsEmpty() {
					gens = append(gens, g)
				}
			}
			vals[0] = reflect.ValueOf(base)
			vals[1] = reflect.ValueOf(gens)
			vals[2] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(base bitset.Set, gens []bitset.Set, seed int64) bool {
		pred := monotonePred(gens)
		res := run(base, pred, Options{Seed: seed})
		wantTrue, wantFalse := naive(base, pred)
		return reflect.DeepEqual(res.MinimalTrue, wantTrue) &&
			reflect.DeepEqual(res.MaximalFalse, wantFalse)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: seeding with valid certificates never changes the result.
func TestQuickSeedingPreservesResult(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 120,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			var gens []bitset.Set
			for i := 0; i < 1+rnd.Intn(4); i++ {
				var g bitset.Set
				for c := 0; c < 5; c++ {
					if rnd.Intn(3) == 0 {
						g = g.With(c)
					}
				}
				if !g.IsEmpty() {
					gens = append(gens, g)
				}
			}
			vals[0] = reflect.ValueOf(gens)
			vals[1] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(gens []bitset.Set, seed int64) bool {
		base := bitset.Full(5)
		pred := monotonePred(gens)
		plain := run(base, pred, Options{Seed: seed})
		// Seed with every true generator and every maximal false set.
		seeded := run(base, pred, Options{
			Seed:       seed,
			KnownTrue:  gens,
			KnownFalse: plain.MaximalFalse,
		})
		return reflect.DeepEqual(plain.MinimalTrue, seeded.MinimalTrue) &&
			reflect.DeepEqual(plain.MaximalFalse, seeded.MaximalFalse)
	}, cfg); err != nil {
		t.Error(err)
	}
}
