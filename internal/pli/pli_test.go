package pli

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"holistic/internal/bitset"
	"holistic/internal/relation"
)

// canon converts a PLI into a canonical form (sorted clusters of sorted rows)
// for comparisons.
func canon(p *PLI) [][]int32 {
	if p.NumClusters() == 0 {
		return nil
	}
	out := make([][]int32, 0, p.NumClusters())
	p.ForEachCluster(func(c []int32) {
		cc := append([]int32(nil), c...)
		sort.Slice(cc, func(i, j int) bool { return cc[i] < cc[j] })
		out = append(out, cc)
	})
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// brutePLI computes the stripped partition of column set s by grouping rows
// on their value tuples.
func brutePLI(r *relation.Relation, s bitset.Set) [][]int32 {
	groups := map[string][]int32{}
	for row := 0; row < r.NumRows(); row++ {
		key := ""
		s.ForEach(func(c int) {
			key += fmt.Sprintf("%d|", r.Column(c)[row])
		})
		groups[key] = append(groups[key], int32(row))
	}
	var out [][]int32
	for _, g := range groups {
		if len(g) >= 2 {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func randomRelation(rnd *rand.Rand, maxCols, maxRows, maxCard int) *relation.Relation {
	cols := 1 + rnd.Intn(maxCols)
	rows := 1 + rnd.Intn(maxRows)
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, cols)
		for c := range row {
			row[c] = fmt.Sprint(rnd.Intn(1 + rnd.Intn(maxCard)))
		}
		data[i] = row
	}
	return relation.MustNew("rand", names, data)
}

func TestFromColumn(t *testing.T) {
	col := []int32{0, 1, 0, 2, 1, 0}
	p := FromColumn(col, 3)
	want := [][]int32{{0, 2, 5}, {1, 4}} // row 3 is a singleton: stripped
	if got := canon(p); !reflect.DeepEqual(got, want) {
		t.Errorf("clusters = %v, want %v", got, want)
	}
	if p.NumRows() != 6 || p.NumClusters() != 2 {
		t.Error("shape mismatch")
	}
	if p.IsUnique() {
		t.Error("column is not unique")
	}
	if p.ErrorSum() != 3 || p.DistinctCount() != 3 {
		t.Errorf("ErrorSum=%d DistinctCount=%d", p.ErrorSum(), p.DistinctCount())
	}
}

func TestUniqueColumn(t *testing.T) {
	p := FromColumn([]int32{0, 1, 2, 3}, 4)
	if !p.IsUnique() || p.NumClusters() != 0 {
		t.Error("all-distinct column must yield empty stripped partition")
	}
	if p.DistinctCount() != 4 {
		t.Errorf("DistinctCount = %d", p.DistinctCount())
	}
}

func TestFromAllRows(t *testing.T) {
	p := FromAllRows(4)
	if p.NumClusters() != 1 || len(p.Cluster(0)) != 4 {
		t.Errorf("clusters = %v", canon(p))
	}
	if FromAllRows(1).NumClusters() != 0 {
		t.Error("single-row relation: empty set PLI must be stripped empty")
	}
	if FromAllRows(0).NumClusters() != 0 {
		t.Error("empty relation: no clusters")
	}
}

// TestFromClustersStripsSingletons builds the PLI of the explicit clusters
// {0} {1,2} {3} {4}, given as a column of cluster codes, both directly and
// by folding that column over the all-rows PLI: only {1,2} survives.
func TestFromClustersStripsSingletons(t *testing.T) {
	codes := []int32{0, 1, 1, 2, 3}
	want := [][]int32{{1, 2}}
	for name, p := range map[string]*PLI{
		"FromColumn":      FromColumn(codes, 4),
		"IntersectColumn": FromAllRows(5).IntersectColumn(codes, 4),
	} {
		if p.NumClusters() != 1 {
			t.Errorf("%s: NumClusters = %d, want 1", name, p.NumClusters())
		}
		if got := canon(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: clusters = %v, want %v", name, got, want)
		}
	}
}

func TestIntersectExample(t *testing.T) {
	// Column A: x x y y z ; Column B: 1 1 1 2 2
	a := FromColumn([]int32{0, 0, 1, 1, 2}, 3)
	b := FromColumn([]int32{0, 0, 0, 1, 1}, 2)
	want := [][]int32{{0, 1}} // only rows 0,1 agree on both A and B
	if got := canon(a.IntersectColumn([]int32{0, 0, 0, 1, 1}, 2)); !reflect.DeepEqual(got, want) {
		t.Errorf("A folded with B = %v, want %v", got, want)
	}
	if got := canon(b.IntersectColumn([]int32{0, 0, 1, 1, 2}, 3)); !reflect.DeepEqual(got, want) {
		t.Errorf("B folded with A = %v, want %v", got, want)
	}
}

func TestRefines(t *testing.T) {
	// A: x x y y ; B: 1 1 2 2 ; C: 1 2 1 2
	a := FromColumn([]int32{0, 0, 1, 1}, 2)
	if !a.Refines([]int32{0, 0, 1, 1}) {
		t.Error("A → B should hold")
	}
	if a.Refines([]int32{0, 1, 0, 1}) {
		t.Error("A → C should not hold")
	}
}

func TestCheckRefinesManyWithoutKeys(t *testing.T) {
	a := FromColumn([]int32{0, 0, 1, 1}, 2)
	cols := [][]int32{
		{0, 0, 1, 1}, // holds
		{0, 1, 0, 1}, // fails
		{5, 5, 5, 5}, // holds
	}
	got := make([]bool, len(cols))
	a.CheckRefinesMany(cols, nil, nil, got, nil)
	want := []bool{true, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CheckRefinesMany = %v, want %v", got, want)
	}
}

// TestForEachCluster checks that ForEachCluster visits the clusters in
// cluster order, each as the same view Cluster returns.
func TestForEachCluster(t *testing.T) {
	p := FromColumn([]int32{0, 1, 0, 2, 1, 0}, 3)
	var got [][]int32
	p.ForEachCluster(func(c []int32) {
		got = append(got, append([]int32(nil), c...))
	})
	want := [][]int32{{0, 2, 5}, {1, 4}} // ascending code order
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ForEachCluster visited %v, want %v", got, want)
	}
	for i := range want {
		if !reflect.DeepEqual(p.Cluster(i), want[i]) {
			t.Errorf("Cluster(%d) = %v, want %v", i, p.Cluster(i), want[i])
		}
	}
	if n := p.NumClusters(); n != 2 {
		t.Errorf("NumClusters = %d, want 2", n)
	}
}

// Property: IntersectColumn agrees with the brute-force partition of the
// union, and folding B over A's PLI equals folding A over B's.
func TestQuickIntersectCorrect(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 150,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomRelation(rnd, 4, 40, 6))
			vals[1] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(r *relation.Relation, seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := r.NumColumns()
		a := bitset.Single(rnd.Intn(n))
		b := bitset.Single(rnd.Intn(n))
		p := NewProvider(r, nil)
		pa, pb := p.Get(a), p.Get(b)
		inter := pa.IntersectColumn(r.Column(b.First()), r.Cardinality(b.First()))
		if !reflect.DeepEqual(canon(inter), brutePLI(r, a.Union(b))) {
			return false
		}
		swapped := pb.IntersectColumn(r.Column(a.First()), r.Cardinality(a.First()))
		return reflect.DeepEqual(canon(swapped), canon(inter))
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the provider's Get agrees with the brute-force partition for
// arbitrary column sets, however the lookups are interleaved.
func TestQuickProviderCorrect(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomRelation(rnd, 5, 30, 4))
			vals[1] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(r *relation.Relation, seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := NewProvider(r, NewCache(1, 8, 0)) // tiny cache to exercise eviction
		for i := 0; i < 20; i++ {
			var s bitset.Set
			for c := 0; c < r.NumColumns(); c++ {
				if rnd.Intn(2) == 0 {
					s = s.With(c)
				}
			}
			if !reflect.DeepEqual(canon(p.Get(s)), brutePLI(r, s)) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: refinement test agrees with the cardinality criterion of Lemma 1:
// X → A ⇔ |X| = |X ∪ {A}|.
func TestQuickLemma1(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 120,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomRelation(rnd, 5, 30, 3))
			vals[1] = reflect.ValueOf(rnd.Int63())
		},
	}
	if err := quick.Check(func(r *relation.Relation, seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := NewProvider(r, nil)
		n := r.NumColumns()
		var lhs bitset.Set
		for c := 0; c < n; c++ {
			if rnd.Intn(2) == 0 {
				lhs = lhs.With(c)
			}
		}
		rhs := rnd.Intn(n)
		if lhs.Has(rhs) {
			lhs = lhs.Without(rhs)
		}
		refines := p.Get(lhs).Refines(r.Column(rhs))
		byCard := p.Get(lhs).DistinctCount() == p.Get(lhs.With(rhs)).DistinctCount()
		return refines == byCard
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestProviderBasics(t *testing.T) {
	r := relation.MustNew("t", []string{"A", "B", "C"}, [][]string{
		{"x", "1", "p"},
		{"x", "1", "q"},
		{"y", "2", "p"},
		{"y", "3", "q"},
	})
	p := NewProvider(r, nil)
	if p.Relation() != r {
		t.Error("Relation accessor mismatch")
	}
	if p.SingleColumn(0).NumClusters() != 2 {
		t.Error("column A has two clusters")
	}
	if !p.IsUnique(bitset.New(0, 2)) {
		t.Error("AC should be unique")
	}
	if p.IsUnique(bitset.New(0)) {
		t.Error("A is not unique")
	}
	if p.IsUnique(bitset.New()) {
		t.Error("empty set is not unique on a 4-row relation")
	}
	if !p.CheckFD(bitset.New(1), 0) {
		t.Error("B → A should hold")
	}
	if p.CheckFD(bitset.New(0), 1) {
		t.Error("A → B should not hold")
	}
	if !p.CheckFD(bitset.New(0, 1), 0) {
		t.Error("trivial FD must hold")
	}
	got := p.CheckFDs(bitset.New(1), bitset.New(0, 1, 2))
	if got != bitset.New(0, 1) { // B→A holds, B→B trivial, B→C fails
		t.Errorf("CheckFDs = %v", got)
	}
}

func TestProviderEmptySetDistinctCount(t *testing.T) {
	r := relation.MustNew("t", []string{"A"}, [][]string{{"x"}, {"y"}})
	p := NewProvider(r, nil)
	empty := p.Get(bitset.New())
	if empty.DistinctCount() != 1 {
		t.Errorf("empty set cardinality = %d, want 1", empty.DistinctCount())
	}
	if e := p.ErrorSumWith(empty, 0, NewScratch()); e != 0 {
		t.Errorf("error sum of A folded over the empty set = %d, want 0", e)
	}
}

func TestProviderCacheEviction(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	r := randomRelation(rnd, 6, 50, 3)
	for r.NumColumns() < 6 {
		r = randomRelation(rnd, 6, 50, 3)
	}
	p := NewProvider(r, NewCache(1, 4, 0))
	// Touch many sets; cache must stay bounded and results stay correct.
	sets := []bitset.Set{}
	for c1 := 0; c1 < 6; c1++ {
		for c2 := c1 + 1; c2 < 6; c2++ {
			sets = append(sets, bitset.New(c1, c2))
		}
	}
	for _, s := range sets {
		p.Get(s)
	}
	if n := p.CacheStats().Entries; n > 4 {
		t.Errorf("cache grew to %d entries, cap 4", n)
	}
	for _, s := range sets {
		if !reflect.DeepEqual(canon(p.Get(s)), brutePLI(r, s)) {
			t.Errorf("post-eviction PLI wrong for %v", s)
		}
	}
}
