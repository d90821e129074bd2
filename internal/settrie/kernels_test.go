package settrie

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"holistic/internal/bitset"
)

// This file checks every query of the index and both families against a
// linear scan of a plain slice of the members. Sets are drawn over 70
// columns so that they cross the 64-bit word boundary of bitset.Set, and
// families grow past 64 members so that the slot bitmaps span several words.

// scanModel is the linear-scan oracle: the members as a plain slice in
// insertion order. An Add that removes members keeps the order of the
// others and appends the new set, as the index does.
type scanModel []bitset.Set

// members returns the members in insertion order, the order the index
// enumerates them in, or nil when empty.
func (m scanModel) members() []bitset.Set {
	if len(m) == 0 {
		return nil
	}
	return m
}

func (m scanModel) contains(x bitset.Set) bool { return slices.Contains(m, x) }

func (m scanModel) filter(keep func(bitset.Set) bool) scanModel {
	var out scanModel
	for _, s := range m {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func (m scanModel) subsetsOf(x bitset.Set) []bitset.Set {
	return m.filter(func(s bitset.Set) bool { return s.IsSubsetOf(x) }).members()
}

func (m scanModel) supersetsOf(x bitset.Set) []bitset.Set {
	return m.filter(func(s bitset.Set) bool { return x.IsSubsetOf(s) }).members()
}

// addMinimal applies MinimalFamily.Add's rule by scanning.
func (m *scanModel) addMinimal(s bitset.Set) bool {
	if len(m.subsetsOf(s)) > 0 {
		return false
	}
	*m = append(m.filter(func(o bitset.Set) bool { return !s.IsSubsetOf(o) }), s)
	return true
}

// addMaximal applies MaximalFamily.Add's rule by scanning.
func (m *scanModel) addMaximal(s bitset.Set) bool {
	if len(m.supersetsOf(s)) > 0 {
		return false
	}
	*m = append(m.filter(func(o bitset.Set) bool { return !o.IsSubsetOf(s) }), s)
	return true
}

// checkMinimal compares every query of f at x with the oracle.
func checkMinimal(t *testing.T, f *MinimalFamily, m scanModel, x bitset.Set) {
	t.Helper()
	subs, sups := m.subsetsOf(x), m.supersetsOf(x)
	switch {
	case f.Contains(x) != m.contains(x):
		t.Fatalf("Contains(%v) = %v over %v", x, f.Contains(x), m)
	case f.CoversSubsetOf(x) != (subs != nil):
		t.Fatalf("CoversSubsetOf(%v) = %v over %v", x, f.CoversSubsetOf(x), m)
	case !reflect.DeepEqual(subsetsOf(&f.ix, x), subs):
		t.Fatalf("subsets of %v = %v, want %v", x, subsetsOf(&f.ix, x), subs)
	case !reflect.DeepEqual(supersetsOf(&f.ix, x), sups):
		t.Fatalf("SupersetsOf(%v) = %v, want %v", x, supersetsOf(&f.ix, x), sups)
	case !reflect.DeepEqual(f.All(), m.members()):
		t.Fatalf("All = %v, want %v", f.All(), m.members())
	}
}

// checkMaximal compares every query of f at x with the oracle.
func checkMaximal(t *testing.T, f *MaximalFamily, m scanModel, x bitset.Set) {
	t.Helper()
	switch {
	case f.CoversSupersetOf(x) != (m.supersetsOf(x) != nil):
		t.Fatalf("CoversSupersetOf(%v) = %v over %v", x, f.CoversSupersetOf(x), m)
	case f.Len() != len(m):
		t.Fatalf("Len = %d, want %d", f.Len(), len(m))
	case !reflect.DeepEqual(f.All(), m.members()):
		t.Fatalf("All = %v, want %v", f.All(), m.members())
	}
}

// pickColumns returns a set of between lo and hi columns drawn from
// [0, n); repeated draws may make it smaller.
func pickColumns(r *rand.Rand, n, lo, hi int) bitset.Set {
	var s bitset.Set
	for i := lo + r.Intn(hi-lo+1); i > 0; i-- {
		s = s.With(r.Intn(n))
	}
	return s
}

// query draws a look-up set related to the stored sets: a random dense set,
// a subset of a stored set, a stored set with extra columns, or the empty
// set, so that both hits and misses are common.
func query(r *rand.Rand, stored []bitset.Set, n int) bitset.Set {
	var from bitset.Set
	if len(stored) > 0 {
		from = stored[r.Intn(len(stored))]
	}
	switch r.Intn(4) {
	case 0:
		return pickColumns(r, n, 0, 40)
	case 1:
		return from.Intersect(pickColumns(r, n, 0, 40))
	case 2:
		return from.Union(pickColumns(r, n, 0, 6))
	default:
		return bitset.Set{}
	}
}

// TestFamilyQueriesMatchLinearScan runs random insertion sequences into
// both families and checks every Add result and every query against the
// oracle. Insertions come in rounds of growing size for the minimal family
// and shrinking size for the maximal one, so later rounds dominate many
// members. Every other run draws from the 12 columns around the word
// boundary only, where domination is common, so that runs cross the
// compaction threshold.
func TestFamilyQueriesMatchLinearScan(t *testing.T) {
	const n = 70
	r := rand.New(rand.NewSource(1))
	subHits, supHits, total, compactions := 0, 0, 0, 0
	for iter := 0; iter < 100; iter++ {
		lowest := 0
		if iter%2 == 1 {
			lowest = n - 12
		}
		draw := func(lo, hi int) bitset.Set {
			var s bitset.Set
			for i := lo + r.Intn(hi-lo+1); i > 0; i-- {
				s = s.With(lowest + r.Intn(n-lowest))
			}
			return s
		}
		var minF MinimalFamily
		var maxF MaximalFamily
		var minM, maxM scanModel
		minAdded, maxAdded := 0, 0
		for round := 0; round < 4; round++ {
			for i := r.Intn(80); i > 0; i-- {
				s := draw(5-round, 8-round)
				if got, want := minF.Add(s), minM.addMinimal(s); got != want {
					t.Fatalf("MinimalFamily.Add(%v) = %v, want %v", s, got, want)
				} else if got {
					minAdded++
				}
				s = draw(1+2*round, 3+3*round)
				if got, want := maxF.Add(s), maxM.addMaximal(s); got != want {
					t.Fatalf("MaximalFamily.Add(%v) = %v, want %v", s, got, want)
				} else if got {
					maxAdded++
				}
			}
			for q := 0; q < 10; q++ {
				x := query(r, minM, n)
				checkMinimal(t, &minF, minM, x)
				checkMaximal(t, &maxF, maxM, query(r, maxM, n))
				total++
				if minF.CoversSubsetOf(x) {
					subHits++
				}
				if supersetsOf(&minF.ix, x) != nil {
					supHits++
				}
			}
		}
		if len(minF.ix.slots) < minAdded {
			compactions++
		}
		if len(maxF.ix.slots) < maxAdded {
			compactions++
		}
	}
	// Both answers must be exercised, or the comparison says little.
	if subHits < total/10 || subHits > total*9/10 || supHits < total/10 || supHits > total*9/10 {
		t.Fatalf("unbalanced queries: %d subset and %d superset hits of %d", subHits, supHits, total)
	}
	if compactions < 30 {
		t.Fatalf("only %d of 200 runs compacted", compactions)
	}
}

// TestConcurrentQueries queries finished families from several goroutines
// at once, as the parallel MUDS walks do; under -race it shows that queries
// write nothing.
func TestConcurrentQueries(t *testing.T) {
	const n = 70
	r := rand.New(rand.NewSource(2))
	var minF MinimalFamily
	var maxF MaximalFamily
	var minM, maxM scanModel
	for i := 0; i < 300; i++ {
		s := pickColumns(r, n, 1, 8)
		minF.Add(s)
		minM.addMinimal(s)
		maxF.Add(s)
		maxM.addMaximal(s)
	}
	queries := make([]bitset.Set, 50)
	for i := range queries {
		queries[i] = query(r, minM, n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, x := range queries {
				if minF.CoversSubsetOf(x) != (minM.subsetsOf(x) != nil) ||
					!reflect.DeepEqual(supersetsOf(&minF.ix, x), minM.supersetsOf(x)) ||
					maxF.CoversSupersetOf(x) != (maxM.supersetsOf(x) != nil) {
					t.Errorf("concurrent query at %v disagrees with the oracle", x)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzSetFamilyMatchesLinearScan feeds both families and a plain index the
// same insertions and checks every query against the oracle after each.
// Every 10 bytes are one operation: the low two bits of the first byte pick
// the target (minimal family, maximal family, plain index, or a query only)
// and the next 9 bytes are the set, bit i meaning column i (below 70).
func FuzzSetFamilyMatchesLinearScan(f *testing.F) {
	f.Add([]byte{0, 7, 0, 0, 0, 0, 0, 0, 0, 0x20, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0x20, 3, 1})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 3, 2})
	f.Add([]byte{2, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x3f, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const opLen = 1 + 9
		var minF MinimalFamily
		var maxF MaximalFamily
		var ix Index
		var minM, maxM, ixM scanModel
		for ; len(data) >= opLen; data = data[opLen:] {
			var s bitset.Set
			for c := 0; c < 70; c++ {
				if data[1+c/8]&(1<<(c%8)) != 0 {
					s = s.With(c)
				}
			}
			switch data[0] & 3 {
			case 0:
				if got, want := minF.Add(s), minM.addMinimal(s); got != want {
					t.Fatalf("MinimalFamily.Add(%v) = %v, want %v", s, got, want)
				}
			case 1:
				if got, want := maxF.Add(s), maxM.addMaximal(s); got != want {
					t.Fatalf("MaximalFamily.Add(%v) = %v, want %v", s, got, want)
				}
			case 2:
				if !ixM.contains(s) {
					ix.Add(s)
					ixM = append(ixM, s)
				}
			}
			checkMinimal(t, &minF, minM, s)
			checkMaximal(t, &maxF, maxM, s)
			if got, want := subsetsOf(&ix, s), ixM.subsetsOf(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("Index subsets of %v = %v, want %v", s, got, want)
			}
		}
	})
}
