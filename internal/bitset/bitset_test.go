package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewAndHas(t *testing.T) {
	s := New(0, 3, 77, 200)
	for _, c := range []int{0, 3, 77, 200} {
		if !s.Has(c) {
			t.Errorf("expected column %d in set", c)
		}
	}
	for _, c := range []int{1, 2, 76, 78, 199, 201, 255} {
		if s.Has(c) {
			t.Errorf("did not expect column %d in set", c)
		}
	}
	if got := s.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
}

func TestZeroValueIsEmpty(t *testing.T) {
	var s Set
	if !s.IsEmpty() {
		t.Error("zero value should be empty")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
	if s.First() != -1 {
		t.Errorf("First = %d, want -1", s.First())
	}
	if s.String() != "∅" {
		t.Errorf("String = %q, want ∅", s.String())
	}
}

func TestWithWithout(t *testing.T) {
	s := New(1, 2)
	if got := s.With(2); got != s {
		t.Error("adding existing column should be identity")
	}
	if got := s.Without(5); got != s {
		t.Error("removing absent column should be identity")
	}
	if got := s.With(5).Without(5); got != s {
		t.Error("With then Without should round-trip")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for _, col := range []int{-1, MaxColumns, MaxColumns + 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for column %d", col)
				}
			}()
			New(col)
		}()
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(0, 1, 2, 64, 130)
	b := New(2, 3, 64, 131)
	if got, want := a.Union(b), New(0, 1, 2, 3, 64, 130, 131); got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b), New(2, 64); got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Diff(b), New(0, 1, 130); got != want {
		t.Errorf("Diff = %v, want %v", got, want)
	}
	if !a.Intersects(b) {
		t.Error("a and b should intersect")
	}
	if a.Intersects(New(200)) {
		t.Error("a should not intersect {200}")
	}
}

func TestSubsetRelations(t *testing.T) {
	a := New(1, 2)
	b := New(1, 2, 3)
	if !a.IsSubsetOf(b) || !a.IsProperSubsetOf(b) {
		t.Error("a ⊂ b expected")
	}
	if !b.IsSupersetOf(a) {
		t.Error("b ⊇ a expected")
	}
	if b.IsSubsetOf(a) {
		t.Error("b ⊆ a not expected")
	}
	if !a.IsSubsetOf(a) || a.IsProperSubsetOf(a) {
		t.Error("a ⊆ a but not a ⊂ a")
	}
}

func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 255, 256} {
		f := Full(n)
		if f.Len() != n {
			t.Errorf("Full(%d).Len = %d", n, f.Len())
		}
		if n > 0 && (!f.Has(0) || !f.Has(n-1)) {
			t.Errorf("Full(%d) missing boundary columns", n)
		}
		if n < MaxColumns && f.Has(n) {
			t.Errorf("Full(%d) contains %d", n, n)
		}
	}
}

func TestComplement(t *testing.T) {
	s := New(0, 2)
	if got, want := s.Complement(4), New(1, 3); got != want {
		t.Errorf("Complement = %v, want %v", got, want)
	}
}

func TestIteration(t *testing.T) {
	cols := []int{0, 5, 63, 64, 127, 255}
	s := New(cols...)
	if got := s.Columns(); !reflect.DeepEqual(got, cols) {
		t.Errorf("Columns = %v, want %v", got, cols)
	}
	var visited []int
	s.ForEach(func(c int) { visited = append(visited, c) })
	if !reflect.DeepEqual(visited, cols) {
		t.Errorf("ForEach visited %v, want %v", visited, cols)
	}
}

func TestNextAfter(t *testing.T) {
	s := New(3, 64, 200)
	cases := []struct{ after, want int }{
		{-1, 3}, {0, 3}, {3, 64}, {63, 64}, {64, 200}, {199, 200}, {200, -1}, {255, -1},
	}
	for _, c := range cases {
		if got := s.NextAfter(c.after); got != c.want {
			t.Errorf("NextAfter(%d) = %d, want %d", c.after, got, c.want)
		}
	}
}

func TestDirectSubsets(t *testing.T) {
	s := FromLetters("ABC")
	want := []Set{FromLetters("BC"), FromLetters("AC"), FromLetters("AB")}
	if got := s.DirectSubsets(); !reflect.DeepEqual(got, want) {
		t.Errorf("DirectSubsets = %v, want %v", got, want)
	}
	if got := New().DirectSubsets(); len(got) != 0 {
		t.Errorf("empty set has no direct subsets, got %v", got)
	}
}

func TestDirectSupersets(t *testing.T) {
	s := FromLetters("AC")
	want := []Set{FromLetters("ABC"), FromLetters("ACD")}
	if got := s.DirectSupersets(4); !reflect.DeepEqual(got, want) {
		t.Errorf("DirectSupersets = %v, want %v", got, want)
	}
}

func TestSubsetsOfSize(t *testing.T) {
	s := FromLetters("ABCD")
	var got []Set
	s.SubsetsOfSize(2, func(sub Set) bool {
		got = append(got, sub)
		return true
	})
	if len(got) != 6 {
		t.Fatalf("got %d subsets of size 2, want 6", len(got))
	}
	for _, sub := range got {
		if sub.Len() != 2 || !sub.IsSubsetOf(s) {
			t.Errorf("bad subset %v", sub)
		}
	}
	// Degenerate sizes.
	s.SubsetsOfSize(5, func(Set) bool { t.Error("no subsets of size 5"); return true })
	s.SubsetsOfSize(-1, func(Set) bool { t.Error("no subsets of size -1"); return true })
	n := 0
	s.SubsetsOfSize(0, func(sub Set) bool {
		n++
		if !sub.IsEmpty() {
			t.Error("size-0 subset must be empty")
		}
		return true
	})
	if n != 1 {
		t.Errorf("size-0 enumeration count = %d, want 1", n)
	}
}

func TestStringAndFromLetters(t *testing.T) {
	cases := []struct {
		set  Set
		want string
	}{
		{FromLetters("AFG"), "AFG"},
		{FromLetters("a"), "A"},
		{New(0, 25), "AZ"},
		{New(0, 26), "{0,26}"},
	}
	for _, c := range cases {
		if got := c.set.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	if FromLetters("AFG") != New(0, 5, 6) {
		t.Error("FromLetters mismatch")
	}
}

func TestFromLettersInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid letter")
		}
	}()
	FromLetters("A1")
}

func TestSortAndLess(t *testing.T) {
	sets := []Set{FromLetters("BC"), FromLetters("A"), FromLetters("AB"), FromLetters("C")}
	Sort(sets)
	want := []Set{FromLetters("A"), FromLetters("C"), FromLetters("AB"), FromLetters("BC")}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("Sort = %v, want %v", sets, want)
	}
	if Less(FromLetters("AB"), FromLetters("AB")) {
		t.Error("Less must be irreflexive")
	}
}

// randomSet draws a set over n columns for property tests.
func randomSet(r *rand.Rand, n int) Set {
	var s Set
	for c := 0; c < n; c++ {
		if r.Intn(2) == 0 {
			s = s.With(c)
		}
	}
	return s
}

func TestQuickSetAlgebraLaws(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomSet(r, 70))
			vals[1] = reflect.ValueOf(randomSet(r, 70))
		},
	}
	// De Morgan-ish and containment laws.
	law := func(a, b Set) bool {
		if !a.Intersect(b).IsSubsetOf(a) || !a.Intersect(b).IsSubsetOf(b) {
			return false
		}
		if !a.IsSubsetOf(a.Union(b)) || !b.IsSubsetOf(a.Union(b)) {
			return false
		}
		if a.Diff(b).Intersects(b) {
			return false
		}
		if a.Union(b).Len() != a.Len()+b.Len()-a.Intersect(b).Len() {
			return false
		}
		return a.Diff(b).Union(a.Intersect(b)) == a
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickColumnsRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomSet(r, 256))
		},
	}
	if err := quick.Check(func(s Set) bool {
		return New(s.Columns()...) == s
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestHashSpreadsLowBits routes every 2- and 3-subset of 18 columns to 4
// shards by the low bits of Hash, as the sharded PLI cache does, and
// requires an even spread: a chi-square statistic below 11.34, the 1% point
// of the distribution with 3 degrees of freedom.
func TestHashSpreadsLowBits(t *testing.T) {
	const shards = 4
	var count [shards]int
	total := 0
	for k := 2; k <= 3; k++ {
		Full(18).SubsetsOfSize(k, func(s Set) bool {
			count[s.Hash()%shards]++
			total++
			return true
		})
	}
	want := float64(total) / shards
	chi2 := 0.0
	for _, n := range count {
		d := float64(n) - want
		chi2 += d * d / want
	}
	if chi2 >= 11.34 {
		t.Errorf("shard counts %v of %d sets: chi-square %.2f", count, total, chi2)
	}
}

var hashSink uint64

// BenchmarkSetHash hashes the 3-subsets of 18 columns, the keys the PLI
// cache routes to its shards.
func BenchmarkSetHash(b *testing.B) {
	var sets []Set
	Full(18).SubsetsOfSize(3, func(s Set) bool {
		sets = append(sets, s)
		return true
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink += sets[i%len(sets)].Hash()
	}
}
