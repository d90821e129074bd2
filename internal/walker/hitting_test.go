package walker

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"holistic/internal/bitset"
)

// bruteHittingSets is the oracle for MinimalHittingSets: every subset of base
// that meets every edge and none of whose direct subsets does, in
// bitset.Sort order (nil when there is none).
func bruteHittingSets(edges []bitset.Set, base bitset.Set) []bitset.Set {
	hits := func(x bitset.Set) bool {
		for _, e := range edges {
			if !e.Intersects(x) {
				return false
			}
		}
		return true
	}
	var out []bitset.Set
	consider := func(x bitset.Set) {
		if !hits(x) {
			return
		}
		for _, sub := range x.DirectSubsets() {
			if hits(sub) {
				return
			}
		}
		out = append(out, x)
	}
	for k := 0; k <= base.Len(); k++ {
		base.SubsetsOfSize(k, func(sub bitset.Set) bool {
			consider(sub)
			return true
		})
	}
	bitset.Sort(out)
	return out
}

// stride spreads the twelve columns the differential tests draw from, i*stride
// for i < 12, across three 64-bit words.
const stride = 13

// maskSet maps the low width bits of mask to the spread columns.
func maskSet(mask uint16, width int) bitset.Set {
	var s bitset.Set
	for i := 0; i < width; i++ {
		if mask&(1<<i) != 0 {
			s = s.With(i * stride)
		}
	}
	return s
}

func checkAgainstOracle(t *testing.T, edges []bitset.Set, base bitset.Set) {
	t.Helper()
	got, err := MinimalHittingSets(context.Background(), edges, base)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteHittingSets(edges, base); !reflect.DeepEqual(got, want) {
		t.Fatalf("MinimalHittingSets(%v, base %v) = %v, want %v", edges, base, got, want)
	}
}

// TestMinimalHittingSetsMatchesBruteForce compares the enumeration with the
// oracle on seeded random hypergraphs over at most 10 base columns with up
// to 30 edges, including duplicate edges, empty edges, no edges at all and
// edges reaching outside base.
func TestMinimalHittingSetsMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	nonTrivial := 0
	for iter := 0; iter < 3000; iter++ {
		var base bitset.Set
		for i := 0; i < 10; i++ {
			if r.Intn(5) != 0 {
				base = base.With(i * stride)
			}
		}
		var edges []bitset.Set
		for n := r.Intn(31); len(edges) < n; {
			if len(edges) > 0 && r.Intn(8) == 0 {
				edges = append(edges, edges[r.Intn(len(edges))]) // duplicate
				continue
			}
			// One to four base columns, sometimes one more drawn from all
			// twelve: the last two lie outside every base.
			var e bitset.Set
			if cols := base.Columns(); len(cols) > 0 {
				for k := 1 + r.Intn(4); k > 0; k-- {
					e = e.With(cols[r.Intn(len(cols))])
				}
			}
			if r.Intn(3) == 0 {
				e = e.With(r.Intn(12) * stride)
			}
			edges = append(edges, e)
		}
		if len(edges) > 0 {
			switch r.Intn(20) {
			case 0:
				edges[r.Intn(len(edges))] = bitset.Set{} // nothing hits it
			case 1:
				edges[r.Intn(len(edges))] = maskSet(0xfff, 12).Diff(base) // nothing in base hits it
			}
		}
		if got := bruteHittingSets(edges, base); len(got) > 1 {
			nonTrivial++
		}
		checkAgainstOracle(t, edges, base)
	}
	// The comparison says little unless many answers have several sets.
	if nonTrivial < 1000 {
		t.Fatalf("only %d of 3000 hypergraphs had several minimal hitting sets", nonTrivial)
	}
}

// FuzzMinimalHittingSets checks the enumeration against the oracle. The
// first two bytes choose base among the first ten spread columns; every
// following byte pair is one edge over all twelve (up to 30 edges).
func FuzzMinimalHittingSets(f *testing.F) {
	f.Add([]byte{0xff, 0x03, 0x03, 0x00, 0x06, 0x00})
	f.Add([]byte{0x0f, 0x00})
	f.Add([]byte{0xff, 0x03, 0x00, 0x00})
	f.Add([]byte{0x01, 0x00, 0x00, 0x0c, 0x03, 0x00, 0x03, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		base := maskSet(uint16(data[0])|uint16(data[1])<<8, 10)
		var edges []bitset.Set
		for i := 2; i+1 < len(data) && len(edges) < 30; i += 2 {
			edges = append(edges, maskSet(uint16(data[i])|uint16(data[i+1])<<8, 12))
		}
		checkAgainstOracle(t, edges, base)
	})
}

// matching returns the n disjoint edges {2i, 2i+1}: 2^n minimal hitting
// sets, far too many to enumerate.
func matching(n int) []bitset.Set {
	edges := make([]bitset.Set, n)
	for i := range edges {
		edges[i] = bitset.New(2*i, 2*i+1)
	}
	return edges
}

// TestMinimalHittingSetsCancelled requires a hopeless enumeration to return
// promptly with the context's error and no partial answer.
func TestMinimalHittingSetsCancelled(t *testing.T) {
	edges := matching(40)
	base := bitset.Full(80)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := MinimalHittingSets(ctx, edges, base)
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("pre-cancelled: %d sets, err %v; want none and context.Canceled", len(got), err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	got, err = MinimalHittingSets(ctx, edges, base)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || got != nil {
		t.Fatalf("deadline: %d sets, err %v; want none and context.DeadlineExceeded", len(got), err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled enumeration took %v, want prompt return", elapsed)
	}
}
