package fd

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"holistic/internal/bitset"
	"holistic/internal/dataset"
	"holistic/internal/oracle"
	"holistic/internal/pli"
)

// Property: the parallel level-wise counting is exact. FUN and TANE at 1 and
// 4 workers agree with the brute-force oracles on relations of 8 to 11
// columns, whose levels are wide enough that chunk boundaries split prefix
// paths, and report the same Checks for both worker counts.
func TestQuickLevelWiseWorkersAgree(t *testing.T) {
	ctx := context.Background()
	if err := quick.Check(func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := randomProvider(rnd, 11, 40, 4)
		for p.Relation().NumColumns() < 8 {
			p = randomProvider(rnd, 11, 40, 4)
		}
		wantFDs, wantUCCs := bruteFDs(p), oracle.UCCs(p.Relation())
		var funChecks, taneChecks []int
		for _, workers := range []int{1, 4} {
			fun, err := FunContext(ctx, p, workers)
			if err != nil || !reflect.DeepEqual(fun.FDs, wantFDs) || !reflect.DeepEqual(fun.MinimalUCCs, wantUCCs) {
				t.Logf("FUN at %d workers diverges from the oracles (err %v)", workers, err)
				return false
			}
			tane, err := TaneContext(ctx, p, workers)
			if err != nil || !reflect.DeepEqual(tane.FDs, wantFDs) {
				t.Logf("TANE at %d workers diverges from the oracle (err %v)", workers, err)
				return false
			}
			funChecks = append(funChecks, fun.Checks)
			taneChecks = append(taneChecks, tane.Checks)
		}
		return funChecks[0] == funChecks[1] && taneChecks[0] == taneChecks[1]
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// pollBudgetCtx reports cancellation from its (n+1)-th Err call on, so a
// test can stop a traversal at an exact poll.
type pollBudgetCtx struct {
	context.Context
	n int
}

func (c *pollBudgetCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestLevelErrorSumsStoppedMidChunk stops the sequential (one-chunk) count
// inside its chunk: the pool sees no cancellation between tasks, so the
// count itself must report the error instead of returning half-written sums.
func TestLevelErrorSumsStoppedMidChunk(t *testing.T) {
	p := pli.NewProvider(dataset.Ionosphere(8, 351), nil)
	level := bitset.AprioriGen([]bitset.Set{bitset.New(0), bitset.New(1), bitset.New(2), bitset.New(3)})
	ctx := &pollBudgetCtx{Context: context.Background(), n: 3} // the pool's poll, then two sets
	if _, err := levelErrorSums(ctx, p, 1, level); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLevelWiseChecksPinned pins the validity-check counts of FUN and TANE
// on the 16-column ionosphere table: the counting strategy may change how a
// check is answered, never which checks the traversal makes. At one worker
// (one chunk, one prefix path) it also pins the intersections the path
// performs: reusing the path's PLIs may change what an intersection costs,
// never how many there are.
func TestLevelWiseChecksPinned(t *testing.T) {
	rel := dataset.Ionosphere(16, 351)
	for _, workers := range []int{1, 2} {
		pf := pli.NewProvider(rel, nil)
		fun, err := FunContext(context.Background(), pf, workers)
		if err != nil {
			t.Fatal(err)
		}
		if fun.Checks != 44711 {
			t.Errorf("workers %d: FUN checks = %d, want 44711", workers, fun.Checks)
		}
		pt := pli.NewProvider(rel, nil)
		tane, err := TaneContext(context.Background(), pt, workers)
		if err != nil {
			t.Fatal(err)
		}
		if tane.Checks != 366272 {
			t.Errorf("workers %d: TANE checks = %d, want 366272", workers, tane.Checks)
		}
		if workers == 1 {
			if got := pf.CacheStats().Intersections; got != 42093 {
				t.Errorf("FUN intersections = %d, want 42093", got)
			}
			if got := pt.CacheStats().Intersections; got != 58131 {
				t.Errorf("TANE intersections = %d, want 58131", got)
			}
		}
		if !reflect.DeepEqual(fun.FDs, tane.FDs) {
			t.Errorf("workers %d: FUN and TANE disagree on the ionosphere FDs", workers)
		}
		for _, p := range []*pli.Provider{pf, pt} {
			if st := p.CacheStats(); st.Hits+st.Misses != 0 || st.Entries != 0 {
				t.Errorf("workers %d: level-wise run used the PLI cache: %+v", workers, st)
			}
		}
	}
}

// TestLevelErrorSumsAllocsFlat checks that the prefix path reuses its PLIs:
// counting a whole level allocates no more than counting its first eighth,
// because the allocations belong to the worker slot and the path depths,
// not to the sets.
func TestLevelErrorSumsAllocsFlat(t *testing.T) {
	p := pli.NewProvider(dataset.Ionosphere(16, 351), nil)
	var level []bitset.Set
	for c := 0; c < 16; c++ {
		level = append(level, bitset.Single(c))
	}
	for k := 2; k <= 4; k++ {
		level = bitset.AprioriGen(level)
	}
	allocs := func(sets []bitset.Set) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := levelErrorSums(context.Background(), p, 1, sets); err != nil {
				t.Fatal(err)
			}
		})
	}
	part, full := allocs(level[:len(level)/8]), allocs(level)
	if full > part {
		t.Errorf("levelErrorSums allocates %v times for %d sets but %v for %d", full, len(level), part, len(level)/8)
	}
}

// snapshotClusters copies every cluster of q in stored order.
func snapshotClusters(q *pli.PLI) [][]int32 {
	var out [][]int32
	for i := 0; i < q.NumClusters(); i++ {
		out = append(out, append([]int32(nil), q.Cluster(i)...))
	}
	return out
}

// TestLevelWiseLeavesProviderPLIsIntact runs FUN and TANE at 1 and 4 workers
// and checks that every PLI the provider hands out, the single-column PLIs
// and the empty set's, keeps its exact clusters in their stored order: the
// prefix path overwrites only the PLIs it owns.
func TestLevelWiseLeavesProviderPLIsIntact(t *testing.T) {
	p := pli.NewProvider(dataset.Ionosphere(10, 351), nil)
	n := p.Relation().NumColumns()
	owned := make([]*pli.PLI, 0, n+1)
	for c := 0; c < n; c++ {
		owned = append(owned, p.SingleColumn(c))
	}
	owned = append(owned, p.Get(bitset.Set{}))
	before := make([][][]int32, len(owned))
	for i, q := range owned {
		before[i] = snapshotClusters(q)
	}
	for _, workers := range []int{1, 4} {
		if _, err := FunContext(context.Background(), p, workers); err != nil {
			t.Fatal(err)
		}
		if _, err := TaneContext(context.Background(), p, workers); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range owned {
		if got := snapshotClusters(q); !reflect.DeepEqual(got, before[i]) {
			t.Errorf("provider PLI %d changed during the level-wise runs", i)
		}
	}
}

// TestQuickFunMinimalityShapes checks FUN against the brute-force oracles on
// the relation shapes where deciding minimality from the emitted left-hand
// sides could diverge from comparing counts: constant columns (their FDs
// have the empty left-hand side and they never enter a level), duplicated
// input rows, and a key column that alone keeps otherwise equal rows apart
// (every left-hand side of the key contains it, and every other column's
// minimal left-hand sides stay small). Both worker counts must agree.
func TestQuickFunMinimalityShapes(t *testing.T) {
	ctx := context.Background()
	if err := quick.Check(func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		nCols, nRows := 3+rnd.Intn(5), 4+rnd.Intn(30)
		rows := make([][]string, nRows)
		for r := range rows {
			row := make([]string, nCols)
			for c := range row {
				row[c] = strconv.Itoa(rnd.Intn(3))
			}
			rows[r] = row
		}
		// Duplicate some rows, then give every row a key value, so the
		// copies survive as rows that differ in the key column alone.
		for i, m := 0, rnd.Intn(nRows); i < m; i++ {
			rows = append(rows, append([]string(nil), rows[rnd.Intn(nRows)]...))
		}
		withKey, leadConst, tailConsts := rnd.Intn(2) == 0, rnd.Intn(2) == 0, rnd.Intn(3)
		for r, row := range rows {
			if withKey {
				row = append(row, "k"+strconv.Itoa(r))
			}
			for i := 0; i < tailConsts; i++ {
				row = append(row, "const")
			}
			if leadConst {
				row = append([]string{"lead"}, row...)
			}
			rows[r] = row
		}
		names := make([]string, len(rows[0]))
		for c := range names {
			names[c] = "c" + strconv.Itoa(c)
		}
		p := pli.NewProvider(oracle.MustRelation("shape", names, rows), nil)
		wantFDs, wantUCCs := bruteFDs(p), oracle.UCCs(p.Relation())
		for _, workers := range []int{1, 4} {
			got, err := FunContext(ctx, p, workers)
			if err != nil || !reflect.DeepEqual(got.FDs, wantFDs) || !reflect.DeepEqual(got.MinimalUCCs, wantUCCs) {
				t.Logf("seed %d: FUN at %d workers diverges from the oracles (err %v)", seed, workers, err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// benchResult keeps the benchmarked runs from being optimized away.
var benchResult Result

// BenchmarkFun measures one sequential FUN run on the 16-column ionosphere
// table. FUN keeps no state in the provider, so one provider serves every
// iteration.
func BenchmarkFun(b *testing.B) {
	p := pli.NewProvider(dataset.Ionosphere(16, 351), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = fun(p)
	}
}

// BenchmarkTane is BenchmarkFun for TANE.
func BenchmarkTane(b *testing.B) {
	p := pli.NewProvider(dataset.Ionosphere(16, 351), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = tane(p)
	}
}
