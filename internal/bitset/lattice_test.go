package bitset

import (
	"reflect"
	"testing"
)

// Level enumerates all subsets of base with exactly k columns. It corresponds
// to one level of the Hasse diagram in Fig. 1 of the paper restricted to the
// columns of base.
func Level(base Set, k int) []Set {
	var out []Set
	base.SubsetsOfSize(k, func(sub Set) bool {
		out = append(out, sub)
		return true
	})
	return out
}

// LatticeSize returns the number of non-empty nodes of the lattice over n
// attributes: 2^n - 1. It panics for n > 62 (the count no longer fits an
// int64; no caller materialises lattices anywhere near that size).
func LatticeSize(n int) int64 {
	if n < 0 || n > 62 {
		panic("bitset: lattice size out of int64 range")
	}
	return (int64(1) << n) - 1
}

// FDCandidateCount returns the number of FD candidates over n attributes,
// sum_{k=1..n} C(n,k)*(n-k), the edge count of the lattice (paper Sec. 2.3).
func FDCandidateCount(n int) int64 {
	if n < 0 || n > 57 {
		panic("bitset: FD candidate count out of int64 range")
	}
	var total int64
	for k := 1; k <= n; k++ {
		total += binomial(n, k) * int64(n-k)
	}
	return total
}

// INDCandidateCount returns the number of unary IND candidates over n
// attributes: n*(n-1) (paper Sec. 2.1).
func INDCandidateCount(n int) int64 {
	return int64(n) * int64(n-1)
}

func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := int64(1)
	for i := 1; i <= k; i++ {
		res = res * int64(n-k+i) / int64(i)
	}
	return res
}

// SubLattice describes the lattice of left-hand-side candidates for one fixed
// right-hand-side column (paper Sec. 4.2, Fig. 3): all subsets of Base, where
// Base excludes the right-hand side.
type SubLattice struct {
	// RHS is the fixed right-hand-side column the sub-lattice belongs to.
	RHS int
	// Base is the set of columns available as left-hand-side attributes.
	Base Set
}

// SubLattices constructs one sub-lattice per column of rhsCols over the
// relation columns all (paper Fig. 3 uses rhsCols = all; MUDS restricts
// rhsCols to R\Z).
func SubLattices(all Set, rhsCols Set) []SubLattice {
	var out []SubLattice
	rhsCols.ForEach(func(c int) {
		out = append(out, SubLattice{RHS: c, Base: all.Without(c)})
	})
	return out
}

// TestLatticeFigure1 reproduces Figure 1 of the paper: the attribute lattice
// for five columns A..E has levels of sizes 5, 10, 10, 5, 1.
func TestLatticeFigure1(t *testing.T) {
	base := Full(5)
	wantSizes := []int{5, 10, 10, 5, 1}
	total := 0
	for k := 1; k <= 5; k++ {
		level := Level(base, k)
		if len(level) != wantSizes[k-1] {
			t.Errorf("level %d has %d nodes, want %d", k, len(level), wantSizes[k-1])
		}
		total += len(level)
		for _, s := range level {
			if s.Len() != k || !s.IsSubsetOf(base) {
				t.Errorf("level %d contains invalid node %v", k, s)
			}
		}
	}
	if int64(total) != LatticeSize(5) {
		t.Errorf("lattice has %d nodes, want %d", total, LatticeSize(5))
	}
	// Spot-check level 2 contains the pairs named in Figure 1.
	level2 := Level(base, 2)
	want := map[Set]bool{FromLetters("AB"): true, FromLetters("CE"): true, FromLetters("DE"): true}
	for _, s := range level2 {
		delete(want, s)
	}
	if len(want) != 0 {
		t.Errorf("level 2 missing nodes: %v", want)
	}
}

// TestSubLatticesFigure3 reproduces Figure 3: the four sub-lattices for the
// right-hand-side columns A, B, C, D over R = {A,B,C,D}.
func TestSubLatticesFigure3(t *testing.T) {
	all := Full(4)
	subs := SubLattices(all, all)
	if len(subs) != 4 {
		t.Fatalf("got %d sub-lattices, want 4", len(subs))
	}
	wantBases := []Set{FromLetters("BCD"), FromLetters("ACD"), FromLetters("ABD"), FromLetters("ABC")}
	for i, sl := range subs {
		if sl.RHS != i {
			t.Errorf("sub-lattice %d has RHS %d", i, sl.RHS)
		}
		if sl.Base != wantBases[i] {
			t.Errorf("sub-lattice %d base = %v, want %v", i, sl.Base, wantBases[i])
		}
		if int64(1)<<sl.Base.Len()-1 != LatticeSize(sl.Base.Len()) {
			t.Errorf("sub-lattice %d size mismatch", i)
		}
	}
	// Figure 3's observation: CD appears in both the A and the B sub-lattice.
	cd := FromLetters("CD")
	if !cd.IsSubsetOf(subs[0].Base) || !cd.IsSubsetOf(subs[1].Base) {
		t.Error("CD should be a node of the A and B sub-lattices")
	}
}

func TestSearchSpaceCounts(t *testing.T) {
	// Paper Sec. 2: n*(n-1) IND candidates, 2^n-1 UCC candidates,
	// sum C(n,k)*(n-k) FD candidates.
	if got := INDCandidateCount(5); got != 20 {
		t.Errorf("INDCandidateCount(5) = %d, want 20", got)
	}
	if got := LatticeSize(5); got != 31 {
		t.Errorf("LatticeSize(5) = %d, want 31", got)
	}
	// For n=3: levels contribute C(3,1)*2 + C(3,2)*1 + C(3,3)*0 = 6+3 = 9.
	if got := FDCandidateCount(3); got != 9 {
		t.Errorf("FDCandidateCount(3) = %d, want 9", got)
	}
	// FD candidates equal n*2^(n-1) - n (each attribute can be rhs of any
	// lhs not containing it, minus empty lhs): check against closed form.
	for n := 1; n <= 12; n++ {
		want := int64(n)*(int64(1)<<(n-1)) - int64(n)
		if got := FDCandidateCount(n); got != want {
			t.Errorf("FDCandidateCount(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {0, 0, 1}, {3, 4, 0}, {3, -1, 0},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestAprioriGen(t *testing.T) {
	// From level-1 singletons over 4 columns, apriori-gen yields all pairs.
	l1 := Level(Full(4), 1)
	l2 := AprioriGen(l1)
	if len(l2) != 6 {
		t.Fatalf("level 2 has %d candidates, want 6", len(l2))
	}
	// Remove AB: any triple containing both A and B must now be blocked.
	var pruned []Set
	for _, s := range l2 {
		if s != FromLetters("AB") {
			pruned = append(pruned, s)
		}
	}
	l3 := AprioriGen(pruned)
	want := []Set{FromLetters("ACD"), FromLetters("BCD")}
	if !reflect.DeepEqual(l3, want) {
		t.Errorf("level 3 = %v, want %v", l3, want)
	}
}

func TestAprioriGenEmpty(t *testing.T) {
	if got := AprioriGen(nil); got != nil {
		t.Errorf("AprioriGen(nil) = %v, want nil", got)
	}
}

func TestAprioriGenMatchesLevels(t *testing.T) {
	// With no pruning, iterating apriori-gen from singletons must regenerate
	// every lattice level exactly.
	base := Full(6)
	level := Level(base, 1)
	for k := 2; k <= 6; k++ {
		level = AprioriGen(level)
		want := Level(base, k)
		Sort(want)
		if !reflect.DeepEqual(level, want) {
			t.Fatalf("level %d mismatch: got %d sets, want %d", k, len(level), len(want))
		}
	}
}
