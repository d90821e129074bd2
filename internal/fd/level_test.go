package fd

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"holistic/internal/bitset"
	"holistic/internal/dataset"
	"holistic/internal/pli"
	"holistic/internal/ucc"
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
		wantFDs, wantUCCs := BruteForce(p), ucc.BruteForce(p)
		var funChecks, taneChecks []int
		for _, workers := range []int{1, 4} {
			fun, err := FunContext(ctx, p, workers)
			if err != nil || !reflect.DeepEqual(fun.FDs, wantFDs) || !reflect.DeepEqual(fun.MinimalUCCs, wantUCCs) {
				t.Logf("FUN at %d workers diverges from the oracles (err %v)", workers, err)
				return false
			}
			tane, err := TaneContext(ctx, p, false, workers)
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
// check is answered, never which checks the traversal makes.
func TestLevelWiseChecksPinned(t *testing.T) {
	p := pli.NewProvider(dataset.Ionosphere(16, 351), nil)
	fun, err := FunContext(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fun.Checks != 44711 {
		t.Errorf("FUN checks = %d, want 44711", fun.Checks)
	}
	tane, err := TaneContext(context.Background(), p, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tane.Checks != 366272 {
		t.Errorf("TANE checks = %d, want 366272", tane.Checks)
	}
	if !reflect.DeepEqual(fun.FDs, tane.FDs) {
		t.Error("FUN and TANE disagree on the ionosphere FDs")
	}
	if st := p.CacheStats(); st.Hits+st.Misses != 0 || st.Entries != 0 {
		t.Errorf("level-wise runs used the PLI cache: %+v", st)
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
		benchResult = Fun(p)
	}
}

// BenchmarkTane is BenchmarkFun for TANE.
func BenchmarkTane(b *testing.B) {
	p := pli.NewProvider(dataset.Ionosphere(16, 351), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = Tane(p, false)
	}
}
