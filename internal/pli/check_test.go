package pli

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/dataset"
	"holistic/internal/relation"
)

// chainIntersect materialises base ∩ keys[0] ∩ … the reference way, one
// IntersectColumn per key. It is the oracle the check kernels must agree
// with.
func chainIntersect(base *PLI, keys [][]int32, cards []int) *PLI {
	out := base
	for i, col := range keys {
		out = out.IntersectColumn(col, cards[i])
	}
	return out
}

// checkRelation builds a small random relation for kernel tests: nCols
// columns of the given cardinality, plus helpers to slice keys out of it.
func checkRelation(t testing.TB, rows, nCols, card int, seed int64) *relation.Relation {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	names := make([]string, nCols)
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	data := make([][]string, rows)
	for r := range data {
		row := make([]string, nCols)
		for c := range row {
			row[c] = fmt.Sprint(rnd.Intn(card))
		}
		data[r] = row
	}
	return relation.MustNew("check", names, data)
}

// refCheckFDs is the materializing reference for Provider.CheckFDs: RHS
// verdicts read directly off the Get-built PLI.
func refCheckFDs(ref *Provider, s bitset.Set, rhs bitset.Set) bitset.Set {
	valid := rhs.Intersect(s)
	pli := ref.Get(s)
	for a := rhs.Diff(s).First(); a >= 0; a = rhs.Diff(s).NextAfter(a) {
		if pli.Refines(ref.Relation().Column(a)) {
			valid = valid.With(a)
		}
	}
	return valid
}

// clusterList copies the clusters of p in order.
func clusterList(p *PLI) [][]int32 {
	var out [][]int32
	p.ForEachCluster(func(c []int32) {
		out = append(out, append([]int32(nil), c...))
	})
	return out
}

func relKeys(rel *relation.Relation, cols ...int) ([][]int32, []int) {
	keys := make([][]int32, len(cols))
	cards := make([]int, len(cols))
	for i, c := range cols {
		keys[i] = rel.Column(c)
		cards[i] = rel.Cardinality(c)
	}
	return keys, cards
}

// TestCheckKernelsAgainstChain drives every kernel against the materializing
// chain on a grid of shapes, including zero keys, unique bases, and fold
// depths past the ping-pong buffer swap.
func TestCheckKernelsAgainstChain(t *testing.T) {
	shapes := []struct{ rows, nCols, card int }{
		{0, 3, 4}, {1, 3, 4}, {50, 3, 3}, {200, 4, 2},
		{200, 4, 7}, {500, 5, 5}, {300, 5, 17},
	}
	for _, sh := range shapes {
		rel := checkRelation(t, sh.rows, sh.nCols, sh.card, int64(sh.rows*31+sh.nCols))
		base := FromColumn(rel.Column(0), rel.Cardinality(0))
		for depth := 0; depth < sh.nCols; depth++ {
			foldCols := make([]int, 0, depth)
			for c := 1; c <= depth; c++ {
				foldCols = append(foldCols, c)
			}
			keys, cards := relKeys(rel, foldCols...)
			ref := chainIntersect(base, keys, cards)

			if depth == 1 {
				if got, want := base.checkErrorSum1(keys[0], cards[0], NewScratch()), ref.ErrorSum(); got != want {
					t.Errorf("%+v: checkErrorSum1 = %d, want %d", sh, got, want)
				}
			}
			for rhs := 0; rhs < sh.nCols; rhs++ {
				col := rel.Column(rhs)
				if got, want := base.CheckRefines(col, keys, cards, nil), ref.Refines(col); got != want {
					t.Errorf("%+v depth %d rhs %d: CheckRefines = %v, want %v", sh, depth, rhs, got, want)
				}
			}
			// Batched flavour, one slot per column.
			cands := make([][]int32, sh.nCols)
			for c := range cands {
				cands[c] = rel.Column(c)
			}
			ok := make([]bool, len(cands))
			base.CheckRefinesMany(cands, keys, cards, ok, nil)
			wantOK := make([]bool, len(cands))
			for c, col := range cands {
				wantOK[c] = ref.Refines(col)
			}
			if !reflect.DeepEqual(ok, wantOK) {
				t.Errorf("%+v depth %d: CheckRefinesMany = %v, want %v", sh, depth, ok, wantOK)
			}
			// Group enumeration must match the materialised clusters.
			var groups [][]int32
			base.ForEachFoldedGroup(keys, cards, nil, func(g []int32) bool {
				groups = append(groups, append([]int32(nil), g...))
				return true
			})
			want := clusterList(ref)
			if !reflect.DeepEqual(groups, want) {
				t.Errorf("%+v depth %d: folded groups diverge (%d vs %d groups)", sh, depth, len(groups), len(want))
			}
			// The materialising fold behind Provider.IsUnique must rebuild
			// exactly those clusters, and with them the uniqueness verdict.
			if depth > 0 {
				folded := base.foldPLI(keys, cards, NewScratch())
				if got := clusterList(folded); !reflect.DeepEqual(got, want) {
					t.Errorf("%+v depth %d: foldPLI clusters diverge (%d vs %d)", sh, depth, len(got), len(want))
				}
				if got, wantU := folded.IsUnique(), ref.IsUnique(); got != wantU {
					t.Errorf("%+v depth %d: foldPLI IsUnique = %v, want %v", sh, depth, got, wantU)
				}
			}
		}
	}
}

// abaloneShaped generates the UCI abalone column layout (one low-cardinality
// categorical, seven near-continuous measurements, a small label) at the
// requested row count, scaling the measurement cardinalities so each
// column's distinctness ratio matches the 4,177-row original.
func abaloneShaped(rows int) *relation.Relation {
	scale := max(float64(rows)/4177, 1)
	sc := func(card int) int { return int(float64(card) * scale) }
	return dataset.Generate(dataset.Spec{
		Name: fmt.Sprintf("abalone-%d", rows),
		Rows: rows,
		Seed: 104,
		Columns: []dataset.ColumnSpec{
			{Name: "sex", Kind: dataset.Zipf, Card: 3},
			{Name: "length", Kind: dataset.Random, Card: sc(134)},
			{Name: "diameter", Kind: dataset.Random, Card: sc(111)},
			{Name: "height", Kind: dataset.Random, Card: sc(51)},
			{Name: "whole_w", Kind: dataset.Random, Card: sc(2429)},
			{Name: "shucked_w", Kind: dataset.Random, Card: sc(1515)},
			{Name: "viscera_w", Kind: dataset.Random, Card: sc(880)},
			{Name: "shell_w", Kind: dataset.Random, Card: sc(926)},
			{Name: "rings", Kind: dataset.Random, Card: 28},
		},
	})
}

// TestProviderFastPathsAgainstGet compares every Provider fast path with the
// materializing Get reference over all column subsets — on the same
// provider (fast first, then Get, so promotions are in play) and across
// admission states. The fast provider is budgeted like an engine run's.
// Besides a small random relation it covers the 5,000-row abalone- and
// ncvoter-shaped generators, whose walks mix near-unique measurement
// columns with low-cardinality ones.
func TestProviderFastPathsAgainstGet(t *testing.T) {
	for _, rel := range []*relation.Relation{
		checkRelation(t, 300, 5, 4, 7),
		abaloneShaped(5000),
		dataset.NCVoter(5000, 12),
	} {
		t.Run(rel.Name(), func(t *testing.T) { checkFastPathsAgainstGet(t, rel) })
	}
}

func checkFastPathsAgainstGet(t *testing.T, rel *relation.Relation) {
	fast := NewProvider(rel, NewCache(1, 0, DefaultCacheBytes))
	ref := NewProvider(rel, nil)

	n := rel.NumColumns()
	var sets []bitset.Set
	for m := 1; m < 1<<n; m++ {
		var s bitset.Set
		for c := 0; c < n; c++ {
			if m&(1<<c) != 0 {
				s = s.With(c)
			}
		}
		sets = append(sets, s)
	}
	// Shuffle so plan() sees sets in DUCC-like non-ascending order.
	rnd := rand.New(rand.NewSource(3))
	rnd.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })

	sc := NewScratch()
	for _, s := range sets {
		refPLI := ref.Get(s)
		if got, want := fast.IsUnique(s), refPLI.IsUnique(); got != want {
			t.Fatalf("IsUnique(%v) = %v, want %v", s, got, want)
		}
		// The uncached one-column step of the level-wise FD algorithms.
		last := s.Last()
		parent := ref.Get(s.Without(last))
		if got, want := fast.ErrorSumWith(parent, last, sc), refPLI.ErrorSum(); got != want {
			t.Fatalf("ErrorSumWith(%v) = %d, want %d", s, got, want)
		}
		if got, want := canon(fast.Extend(nil, parent, last, sc)), canon(refPLI); !reflect.DeepEqual(got, want) {
			t.Fatalf("Extend(%v) = %v, want %v", s, got, want)
		}
		for a := 0; a < n; a++ {
			if got, want := fast.CheckFD(s, a), s.Has(a) || refPLI.Refines(rel.Column(a)); got != want {
				t.Fatalf("CheckFD(%v, %d) = %v, want %v", s, a, got, want)
			}
		}
		if got, want := fast.CheckFDs(s, rel.AllColumns()), refCheckFDs(ref, s, rel.AllColumns()); got != want {
			t.Fatalf("CheckFDs(%v) = %v, want %v", s, got, want)
		}
		var clusters [][]int32
		fast.ForEachCluster(s, func(c []int32) bool {
			cc := append([]int32(nil), c...)
			sort.Slice(cc, func(i, j int) bool { return cc[i] < cc[j] })
			clusters = append(clusters, cc)
			return true
		})
		sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
		if want := canon(refPLI); !reflect.DeepEqual(clusters, want) {
			t.Fatalf("ForEachCluster(%v) diverges", s)
		}
	}

	st := fast.CacheStats()
	if st.FastChecks == 0 {
		t.Error("fast provider reports zero FastChecks")
	}
	// Admission control: the fast provider must have admitted strictly fewer
	// entries than Get's cache-every-set policy.
	if got, want := st.Entries, ref.CacheStats().Entries; got >= want {
		t.Errorf("fast path admitted %d entries, reference Get %d — admission control ineffective", got, want)
	}
}

// TestConcurrentFastChecks hammers the fast paths of one shared provider
// from many goroutines (run under -race by verify.sh): pooled scratches,
// atomic counters, and promotion admissions into the sharded cache must not
// race, and every goroutine must see the same verdicts.
func TestConcurrentFastChecks(t *testing.T) {
	rel := checkRelation(t, 2000, 6, 5, 11)
	p := NewProvider(rel, NewCache(8, 0, 0))
	ref := NewProvider(rel, nil)

	n := rel.NumColumns()
	var sets []bitset.Set
	wantUnique := make(map[bitset.Set]bool)
	wantCard := make(map[bitset.Set]int)
	wantRefines := make(map[bitset.Set][]bool)
	for m := 1; m < 1<<n; m++ {
		var s bitset.Set
		for c := 0; c < n; c++ {
			if m&(1<<c) != 0 {
				s = s.With(c)
			}
		}
		sets = append(sets, s)
		pli := ref.Get(s)
		wantUnique[s] = pli.IsUnique()
		wantCard[s] = pli.DistinctCount()
		refines := make([]bool, n)
		for a := 0; a < n; a++ {
			refines[a] = pli.Refines(rel.Column(a))
		}
		wantRefines[s] = refines
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			sc := NewScratch()
			for iter := 0; iter < 3; iter++ {
				for _, i := range rnd.Perm(len(sets)) {
					s := sets[i]
					if p.IsUnique(s) != wantUnique[s] {
						errs <- fmt.Sprintf("IsUnique(%v) diverged", s)
						return
					}
					last := s.Last()
					if rel.NumRows()-p.ErrorSumWith(p.Get(s.Without(last)), last, sc) != wantCard[s] {
						errs <- fmt.Sprintf("ErrorSumWith(%v) diverged", s)
						return
					}
					a := rnd.Intn(n)
					want := s.Has(a) || wantRefines[s][a]
					if p.CheckFD(s, a) != want {
						errs <- fmt.Sprintf("CheckFD(%v, %d) diverged", s, a)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// FuzzCheckEquivalence differentially fuzzes the check kernels and Provider
// fast paths against the materializing reference on arbitrary relations: the
// fold kernel (every base column, every fold depth), the batched RHS sweep
// and the Provider fast paths must all agree with chained IntersectColumn
// materialization.
func FuzzCheckEquivalence(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 1, 0, 2, 2, 0, 1, 1, 0})
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 1, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{1, 7, 0, 1, 2, 3, 4, 5, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, card := fuzzRelation(data)
		cards := make([]int, len(cols))
		for i := range cards {
			cards[i] = card
		}
		for b := range cols {
			base := FromColumn(cols[b], card)
			keys := make([][]int32, 0, len(cols)-1)
			keyCards := make([]int, 0, len(cols)-1)
			for c := range cols {
				if c == b {
					continue
				}
				keys = append(keys, cols[c])
				keyCards = append(keyCards, card)
				ref := chainIntersect(base, keys, keyCards)
				if len(keys) == 1 && base.checkErrorSum1(keys[0], card, NewScratch()) != ref.ErrorSum() {
					t.Fatalf("checkErrorSum1(base %d) diverges", b)
				}
				for rhs := range cols {
					if base.CheckRefines(cols[rhs], keys, keyCards, nil) != ref.Refines(cols[rhs]) {
						t.Fatalf("CheckRefines(base %d, %d keys, rhs %d) diverges", b, len(keys), rhs)
					}
				}
				ok := make([]bool, len(cols))
				base.CheckRefinesMany(cols, keys, keyCards, ok, nil)
				for rhs := range cols {
					if ok[rhs] != ref.Refines(cols[rhs]) {
						t.Fatalf("CheckRefinesMany(base %d, %d keys) = %v diverges at rhs %d", b, len(keys), ok, rhs)
					}
				}
				var groups [][]int32
				base.ForEachFoldedGroup(keys, keyCards, nil, func(g []int32) bool {
					groups = append(groups, append([]int32(nil), g...))
					return true
				})
				want := clusterList(ref)
				if !reflect.DeepEqual(groups, want) {
					t.Fatalf("folded groups of base %d with %d keys diverge", b, len(keys))
				}
				if folded := base.foldPLI(keys, keyCards, NewScratch()); folded.IsUnique() != ref.IsUnique() ||
					!reflect.DeepEqual(clusterList(folded), want) {
					t.Fatalf("foldPLI(base %d, %d keys) diverges", b, len(keys))
				}
			}
		}
		if len(cols[0]) == 0 {
			return
		}
		// Provider fast paths vs Get on a fresh pair.
		rel := fuzzToRelation(t, cols, card)
		fast := NewProvider(rel, nil)
		ref := NewProvider(rel, nil)
		n := rel.NumColumns()
		for m := 1; m < 1<<n; m++ {
			var s bitset.Set
			for c := 0; c < n; c++ {
				if m&(1<<c) != 0 {
					s = s.With(c)
				}
			}
			refPLI := ref.Get(s)
			if fast.IsUnique(s) != refPLI.IsUnique() {
				t.Fatalf("Provider.IsUnique(%v) diverges", s)
			}
			last := s.Last()
			if fast.ErrorSumWith(ref.Get(s.Without(last)), last, NewScratch()) != refPLI.ErrorSum() {
				t.Fatalf("Provider.ErrorSumWith(%v) diverges", s)
			}
			if got, want := fast.CheckFDs(s, rel.AllColumns()), refCheckFDs(ref, s, rel.AllColumns()); got != want {
				t.Fatalf("Provider.CheckFDs(%v) = %v, want %v", s, got, want)
			}
		}
	})
}

// fuzzToRelation lifts the fuzz columns into a relation so Provider paths
// (which need column names and cardinalities) can run on them.
func fuzzToRelation(t *testing.T, cols [][]int32, card int) *relation.Relation {
	t.Helper()
	names := make([]string, len(cols))
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	rows := make([][]string, len(cols[0]))
	for r := range rows {
		row := make([]string, len(cols))
		for c := range row {
			row[c] = fmt.Sprint(cols[c][r])
		}
		rows[r] = row
	}
	return relation.MustNew("fuzz", names, rows)
}
