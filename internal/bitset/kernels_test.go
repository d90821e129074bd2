package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// This file checks the lattice kernels against brute-force references that
// exist only here. Sets are drawn over up to 70 columns so that they cross
// the 64-bit word boundary.

// refLess is the reference order: cardinality first, then the ascending
// column sequences compared lexicographically.
func refLess(a, b Set) bool {
	ca, cb := a.Columns(), b.Columns()
	if len(ca) != len(cb) {
		return len(ca) < len(cb)
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return ca[i] < cb[i]
		}
	}
	return false
}

// refAprioriGen returns, in reference order, every (k+1)-set over columns
// below n all of whose k-subsets are in prev. Every such set extends one of
// its subsets by a column, so extending each set of prev finds them all.
func refAprioriGen(prev []Set, n int) []Set {
	present := make(map[Set]bool, len(prev))
	for _, s := range prev {
		present[s] = true
	}
	seen := make(map[Set]bool)
	var out []Set
	for s := range present {
		for c := 0; c < n; c++ {
			if s.Has(c) {
				continue
			}
			cand := s.With(c)
			if seen[cand] {
				continue
			}
			seen[cand] = true
			ok := true
			cand.ForEach(func(d int) {
				if !present[cand.Without(d)] {
					ok = false
				}
			})
			if ok {
				out = append(out, cand)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return refLess(out[i], out[j]) })
	return out
}

// randomLevel draws a pruned lattice level: the k-subsets of a random base
// of up to 10 columns below n, each kept with probability keep, shuffled,
// with some sets repeated.
func randomLevel(r *rand.Rand, n int) []Set {
	var base Set
	for _, c := range r.Perm(n)[:min(n, 1+r.Intn(10))] {
		base = base.With(c)
	}
	k := 1 + r.Intn(base.Len())
	keep := 0.5 + r.Float64()/2
	var level []Set
	for _, s := range Level(base, k) {
		if r.Float64() < keep {
			level = append(level, s)
		}
	}
	for i := r.Intn(len(level) + 1); i > 0; i-- {
		level = append(level, level[r.Intn(len(level))])
	}
	r.Shuffle(len(level), func(i, j int) { level[i], level[j] = level[j], level[i] })
	return level
}

func TestAprioriGenMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + r.Intn(70)
		prev := randomLevel(r, n)
		in := append([]Set(nil), prev...)
		got := AprioriGen(prev)
		want := refAprioriGen(prev, n)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AprioriGen(%v)\n got  %v\n want %v", prev, got, want)
		}
		if !reflect.DeepEqual(prev, in) {
			t.Fatalf("AprioriGen modified its input")
		}
	}
}

func TestLessMatchesColumnOrder(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 20000; iter++ {
		a := randomSparseSet(r, 70)
		var b Set
		switch iter % 3 {
		case 0: // unrelated
			b = randomSparseSet(r, 70)
		case 1: // same size: move one column
			b = a
			if c := a.First(); c >= 0 {
				if d := r.Intn(70); !a.Has(d) {
					b = a.Without(c).With(d)
				}
			}
		default: // equal, or one column apart
			b = a
			if r.Intn(2) == 0 {
				b = a.With(r.Intn(70))
			}
		}
		if Less(a, b) != refLess(a, b) || Less(b, a) != refLess(b, a) {
			t.Fatalf("Less(%v, %v) = %v, Less(%v, %v) = %v; reference %v, %v",
				a, b, Less(a, b), b, a, Less(b, a), refLess(a, b), refLess(b, a))
		}
	}
}

// randomSparseSet draws a set over n columns with a random density, so that
// sizes vary and equal-size pairs are common.
func randomSparseSet(r *rand.Rand, n int) Set {
	var s Set
	p := r.Float64() / 4
	for c := 0; c < n; c++ {
		if r.Float64() < p {
			s = s.With(c)
		}
	}
	return s
}

func TestLastMatchesColumns(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 1000; iter++ {
		s := randomSet(r, 1+r.Intn(MaxColumns))
		cols := s.Columns()
		want := -1
		if len(cols) > 0 {
			want = cols[len(cols)-1]
		}
		if got := s.Last(); got != want {
			t.Fatalf("Last(%v) = %d, want %d", s, got, want)
		}
	}
}

// BenchmarkAprioriGen joins the middle level of the 16-column lattice,
// C(16,8) = 12870 sets, the widest level FUN and TANE meet on the 16-column
// ionosphere table.
func BenchmarkAprioriGen(b *testing.B) {
	level := Level(Full(16), 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(AprioriGen(level)) != 11440 {
			b.Fatal("C(16,9) candidates expected")
		}
	}
}
