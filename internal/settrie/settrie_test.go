package settrie

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"holistic/internal/bitset"
)

// Len returns the number of maximal sets stored.
func (f *MaximalFamily) Len() int { return f.ix.n }

func sets(letters ...string) []bitset.Set {
	out := make([]bitset.Set, len(letters))
	for i, l := range letters {
		out[i] = bitset.FromLetters(l)
	}
	return out
}

// subsetsOf and supersetsOf enumerate the members of ix inside and
// containing x, through the query kernel that the existence tests and
// remove use.
func subsetsOf(ix *Index, x bitset.Set) []bitset.Set {
	return ix.collect(bitset.Set{}, ix.used.Diff(x))
}

func supersetsOf(ix *Index, x bitset.Set) []bitset.Set {
	return ix.collect(x, bitset.Set{})
}

func TestAddContainsRemove(t *testing.T) {
	var f MinimalFamily
	a := bitset.FromLetters("ACD")
	if !f.Add(a) || f.Add(a) {
		t.Error("Add should report first-insert only")
	}
	if !f.Contains(a) || len(f.All()) != 1 {
		t.Error("Contains/All mismatch after Add")
	}
	if f.Contains(bitset.FromLetters("AC")) || f.Contains(bitset.FromLetters("ACDE")) {
		t.Error("subset/extension must not be contained")
	}
	// A dominating insertion removes a.
	if !f.Add(bitset.FromLetters("AC")) || f.Contains(a) {
		t.Error("Add of a subset should remove the superset")
	}
	if got := f.All(); !reflect.DeepEqual(got, sets("AC")) {
		t.Errorf("All = %v, want [AC]", got)
	}
}

func TestEmptySetElement(t *testing.T) {
	var ix Index
	ix.Add(bitset.Set{})
	if !ix.contains(bitset.Set{}) || ix.n != 1 {
		t.Error("empty set should be storable")
	}
	if !ix.hasSubsetOf(bitset.FromLetters("AB")) {
		t.Error("empty set is a subset of everything")
	}
	if !ix.hasSupersetOf(bitset.Set{}) {
		t.Error("empty set is a superset of the empty set")
	}
	if got := subsetsOf(&ix, bitset.FromLetters("AB")); !reflect.DeepEqual(got, []bitset.Set{{}}) {
		t.Errorf("subsets of AB = %v, want [∅]", got)
	}

	var minF MinimalFamily
	minF.Add(bitset.Set{})
	if minF.Add(bitset.FromLetters("A")) || !minF.CoversSubsetOf(bitset.FromLetters("B")) {
		t.Error("a minimal family holding ∅ must reject and cover everything")
	}
	var maxF MaximalFamily
	maxF.Add(bitset.Set{})
	if !maxF.CoversSupersetOf(bitset.Set{}) || maxF.CoversSupersetOf(bitset.FromLetters("A")) {
		t.Error("a maximal family holding ∅ covers only ∅")
	}
	if !maxF.Add(bitset.FromLetters("A")) || maxF.Len() != 1 {
		t.Error("A should replace ∅ in a maximal family")
	}
}

// TestPrefixTreeFigure5 stores the UCCs of Figure 5 of the paper, (1,3,8),
// (1,5), (1,10), (1,12), (7), (15,18), (1,11,17), and runs the look-ups the
// figure's prefix tree serves. Enumerations keep insertion order rather
// than the tree's preorder.
func TestPrefixTreeFigure5(t *testing.T) {
	var ix Index
	uccs := []bitset.Set{
		bitset.New(1, 3, 8),
		bitset.New(1, 5),
		bitset.New(1, 10),
		bitset.New(1, 12),
		bitset.New(7),
		bitset.New(15, 18),
		bitset.New(1, 11, 17),
	}
	for _, u := range uccs {
		ix.Add(u)
	}
	if ix.n != 7 {
		t.Fatalf("Len = %d, want 7", ix.n)
	}
	if got := ix.all(); !reflect.DeepEqual(got, uccs) {
		t.Errorf("All = %v, want the insertion order %v", got, uccs)
	}
	// The subtree below the figure's root entry 1 holds the entries 3, 5,
	// 10, 11 and 12.
	want := []bitset.Set{
		bitset.New(1, 3, 8),
		bitset.New(1, 5),
		bitset.New(1, 10),
		bitset.New(1, 12),
		bitset.New(1, 11, 17),
	}
	if got := supersetsOf(&ix, bitset.New(1)); !reflect.DeepEqual(got, want) {
		t.Errorf("supersetsOf(1) = %v, want %v", got, want)
	}
	// Subset look-up as in Sec. 5.4: subsets of X = {1,5,8,18}.
	got := subsetsOf(&ix, bitset.New(1, 5, 8, 18))
	if want := []bitset.Set{bitset.New(1, 5)}; !reflect.DeepEqual(got, want) {
		t.Errorf("subsets = %v, want %v", got, want)
	}
	// {7} is found inside any set containing column 7.
	if !ix.hasSubsetOf(bitset.New(0, 7, 20)) {
		t.Error("subset {7} not found")
	}
	if ix.hasSubsetOf(bitset.New(3, 8)) {
		t.Error("no stored set is a subset of {3,8}")
	}
}

func TestSubsetQueries(t *testing.T) {
	var ix Index
	for _, s := range sets("AB", "BC", "D") {
		ix.Add(s)
	}
	if !ix.hasSubsetOf(bitset.FromLetters("ABC")) {
		t.Error("AB ⊆ ABC expected")
	}
	if ix.hasSubsetOf(bitset.FromLetters("AC")) {
		t.Error("nothing is a subset of AC")
	}
	if got := subsetsOf(&ix, bitset.FromLetters("ABCD")); !reflect.DeepEqual(got, sets("AB", "BC", "D")) {
		t.Errorf("subsets of ABCD = %v", got)
	}
}

func TestSupersetQueries(t *testing.T) {
	var f MinimalFamily
	// The connector look-up example of Table 2: minimal UCCs AFG, BDFG, DEF,
	// CEFG; supersets of the connector FG are AFG, BDFG, CEFG.
	for _, s := range sets("AFG", "BDFG", "DEF", "CEFG") {
		f.Add(s)
	}
	got := supersetsOf(&f.ix, bitset.FromLetters("FG"))
	want := sets("AFG", "BDFG", "CEFG")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SupersetsOf(FG) = %v, want %v", got, want)
	}
	if !f.ix.hasSupersetOf(bitset.FromLetters("FG")) {
		t.Error("a superset of FG expected")
	}
	if f.ix.hasSupersetOf(bitset.FromLetters("AB")) {
		t.Error("no superset of AB stored")
	}
}

func TestAllOrder(t *testing.T) {
	var ix Index
	for _, s := range sets("B", "AC", "A") {
		ix.Add(s)
	}
	// Insertion order, not sorted.
	if got, want := ix.all(), sets("B", "AC", "A"); !reflect.DeepEqual(got, want) {
		t.Errorf("All = %v, want %v", got, want)
	}

	// Removals and a compaction keep the survivors in insertion order.
	var f MinimalFamily
	for _, s := range sets("BC", "AD", "AE", "AF", "G") {
		f.Add(s)
	}
	f.Add(bitset.FromLetters("A")) // removes AD, AE, AF, then compacts
	f.Add(bitset.FromLetters("H"))
	if len(f.ix.slots) != 4 {
		t.Fatalf("%d slots, want 4 after a compaction", len(f.ix.slots))
	}
	if got, want := f.All(), sets("BC", "G", "A", "H"); !reflect.DeepEqual(got, want) {
		t.Errorf("All after compaction = %v, want %v", got, want)
	}
	f.Add(bitset.FromLetters("B")) // removes BC, leaving a dead slot
	if got, want := f.All(), sets("G", "A", "H", "B"); !reflect.DeepEqual(got, want) {
		t.Errorf("All after removal = %v, want %v", got, want)
	}
	if got, want := supersetsOf(&f.ix, bitset.Set{}), sets("G", "A", "H", "B"); !reflect.DeepEqual(got, want) {
		t.Errorf("SupersetsOf(∅) = %v, want %v", got, want)
	}
}

// TestDeadSlotInvisible removes a member without compacting and requires
// every query to skip its slot.
func TestDeadSlotInvisible(t *testing.T) {
	var ix Index
	abc, b := bitset.FromLetters("ABC"), bitset.FromLetters("B")
	ix.Add(abc)
	ix.Add(b)
	ix.remove(abc, ix.used.Diff(abc))
	if len(ix.slots) != 2 || ix.n != 1 {
		t.Fatalf("slots %d, members %d; want a dead slot beside one member", len(ix.slots), ix.n)
	}
	if ix.contains(abc) || ix.hasSupersetOf(bitset.FromLetters("AC")) ||
		ix.hasSubsetOf(bitset.FromLetters("AC")) {
		t.Error("an existence query saw the dead slot")
	}
	if got := supersetsOf(&ix, bitset.FromLetters("A")); got != nil {
		t.Errorf("supersetsOf(A) = %v, want none", got)
	}
	if got := subsetsOf(&ix, bitset.FromLetters("ABCD")); !reflect.DeepEqual(got, []bitset.Set{b}) {
		t.Errorf("subsets of ABCD = %v, want [B]", got)
	}
	if got := ix.all(); !reflect.DeepEqual(got, []bitset.Set{b}) {
		t.Errorf("All = %v, want [B]", got)
	}
}

func TestMinimalFamily(t *testing.T) {
	var f MinimalFamily
	if !f.Add(bitset.FromLetters("ABC")) {
		t.Error("first add should succeed")
	}
	if f.Add(bitset.FromLetters("ABCD")) {
		t.Error("superset of stored set must be rejected")
	}
	if !f.Add(bitset.FromLetters("AB")) {
		t.Error("subset should replace superset")
	}
	if f.Contains(bitset.FromLetters("ABC")) {
		t.Error("superset should have been removed")
	}
	if got := f.All(); len(got) != 1 {
		t.Errorf("All = %v, want one set", got)
	}
	f.Add(bitset.FromLetters("CD"))
	if !f.CoversSubsetOf(bitset.FromLetters("ABE")) {
		t.Error("AB ⊆ ABE expected")
	}
	if f.CoversSubsetOf(bitset.FromLetters("AD")) {
		t.Error("no stored subset of AD")
	}
	if got := supersetsOf(&f.ix, bitset.FromLetters("C")); len(got) != 1 || got[0] != bitset.FromLetters("CD") {
		t.Errorf("SupersetsOf(C) = %v", got)
	}
	if got := subsetsOf(&f.ix, bitset.FromLetters("ABCD")); len(got) != 2 {
		t.Errorf("subsets of ABCD = %v", got)
	}
}

func TestMaximalFamily(t *testing.T) {
	var f MaximalFamily
	if !f.Add(bitset.FromLetters("AB")) {
		t.Error("first add should succeed")
	}
	if f.Add(bitset.FromLetters("A")) {
		t.Error("subset of stored set must be rejected")
	}
	if !f.Add(bitset.FromLetters("ABC")) {
		t.Error("superset should replace subset")
	}
	if got := f.All(); !reflect.DeepEqual(got, sets("ABC")) {
		t.Errorf("All = %v, want [ABC]", got)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d, want 1", f.Len())
	}
	if !f.CoversSupersetOf(bitset.FromLetters("BC")) {
		t.Error("BC ⊆ ABC expected")
	}
	if f.CoversSupersetOf(bitset.FromLetters("D")) {
		t.Error("no superset of D stored")
	}
}

func randomFamily(rnd *rand.Rand, n, count int) []bitset.Set {
	out := make([]bitset.Set, count)
	for i := range out {
		var s bitset.Set
		for c := 0; c < n; c++ {
			if rnd.Intn(3) == 0 {
				s = s.With(c)
			}
		}
		out[i] = s
	}
	return out
}

// Property: index queries agree with naive scans over the stored sets.
func TestQuickTrieMatchesNaive(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomFamily(rnd, 8, 1+rnd.Intn(15)))
			vals[1] = reflect.ValueOf(randomFamily(rnd, 8, 5))
		},
	}
	if err := quick.Check(func(stored, queries []bitset.Set) bool {
		var ix Index
		var model scanModel
		for _, s := range stored {
			if !model.contains(s) {
				ix.Add(s)
				model = append(model, s)
			}
		}
		if ix.n != len(model) || !reflect.DeepEqual(ix.all(), model.members()) {
			return false
		}
		for _, q := range queries {
			subs, sups := model.subsetsOf(q), model.supersetsOf(q)
			if ix.hasSubsetOf(q) != (subs != nil) || ix.hasSupersetOf(q) != (sups != nil) ||
				ix.contains(q) != model.contains(q) {
				return false
			}
			if !reflect.DeepEqual(subsetsOf(&ix, q), subs) || !reflect.DeepEqual(supersetsOf(&ix, q), sups) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: MinimalFamily is always an antichain equal to the minimal
// elements of the inserted sets; MaximalFamily dually.
func TestQuickFamiliesAreAntichains(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, rnd *rand.Rand) {
			vals[0] = reflect.ValueOf(randomFamily(rnd, 7, 1+rnd.Intn(20)))
		},
	}
	if err := quick.Check(func(in []bitset.Set) bool {
		var minF MinimalFamily
		var maxF MaximalFamily
		for _, s := range in {
			minF.Add(s)
			maxF.Add(s)
		}
		wantMin := naiveMinimal(in)
		wantMax := naiveMaximal(in)
		gotMin := minF.All()
		gotMax := maxF.All()
		bitset.Sort(gotMin)
		bitset.Sort(gotMax)
		bitset.Sort(wantMin)
		bitset.Sort(wantMax)
		return reflect.DeepEqual(gotMin, wantMin) && reflect.DeepEqual(gotMax, wantMax)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func naiveMinimal(in []bitset.Set) []bitset.Set {
	var out []bitset.Set
	for _, s := range in {
		minimal := true
		for _, o := range in {
			if o.IsProperSubsetOf(s) {
				minimal = false
				break
			}
		}
		if minimal && !containsSet(out, s) {
			out = append(out, s)
		}
	}
	return out
}

func naiveMaximal(in []bitset.Set) []bitset.Set {
	var out []bitset.Set
	for _, s := range in {
		maximal := true
		for _, o := range in {
			if s.IsProperSubsetOf(o) {
				maximal = false
				break
			}
		}
		if maximal && !containsSet(out, s) {
			out = append(out, s)
		}
	}
	return out
}

func containsSet(in []bitset.Set, s bitset.Set) bool {
	for _, o := range in {
		if o == s {
			return true
		}
	}
	return false
}
