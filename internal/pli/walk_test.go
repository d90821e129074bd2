package pli

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/faults"
)

// outside returns a random column of [0, n) not in s, or -1 if s is full.
func outside(rng *rand.Rand, s bitset.Set, n int) int {
	free := bitset.Full(n).Diff(s).Columns()
	if len(free) == 0 {
		return -1
	}
	return free[rng.Intn(len(free))]
}

// randomSet returns a non-empty random subset of [0, n).
func randomSet(rng *rand.Rand, n int) bitset.Set {
	var s bitset.Set
	for s.IsEmpty() {
		for c := 0; c < n; c++ {
			if rng.Intn(2) == 0 {
				s = s.With(c)
			}
		}
	}
	return s
}

// walkStream feeds check a stream of steps queries shaped like a lattice
// walk's: direct supersets of the node it stands on, supersets two columns
// up, ascents (after a refutation, and silent ones, as when a walk's stores
// decide a step), direct subsets and unrelated jumps.
func walkStream(rng *rand.Rand, n, steps int, check func(q bitset.Set) bool) {
	cur := randomSet(rng, n)
	for i := 0; i < steps; i++ {
		q := cur
		switch rng.Intn(7) {
		case 0, 1, 2: // direct superset
			if c := outside(rng, q, n); c >= 0 {
				q = q.With(c)
			}
		case 3: // two columns up
			for j := 0; j < 2; j++ {
				if c := outside(rng, q, n); c >= 0 {
					q = q.With(c)
				}
			}
		case 4: // silent ascent: no check
			if c := outside(rng, cur, n); c >= 0 {
				cur = cur.With(c)
			}
			continue
		case 5: // direct subset
			if q.Len() > 1 {
				cols := q.Columns()
				q = q.Without(cols[rng.Intn(len(cols))])
			}
		case 6: // jump
			q = randomSet(rng, n)
		}
		if !check(q) || rng.Intn(4) == 0 {
			cur = q
		}
	}
}

// checkWalkAgainst drives one uniqueness Walk and one FD Walk per column of
// rel's provider p with seeded query streams and fails on the first verdict
// that differs from the planner path of ref, a provider of its own over the
// same relation. The fast-check counts of both providers must agree too.
func checkWalkAgainst(t *testing.T, p, ref *Provider, streamSeed int64, steps int) {
	t.Helper()
	n := p.Relation().NumColumns()
	rng := rand.New(rand.NewSource(streamSeed))
	for rhs := -1; rhs < n; rhs++ {
		w := p.UniqueWalk()
		if rhs >= 0 {
			w = p.FDWalk(rhs)
		}
		walkStream(rng, n, steps, func(q bitset.Set) bool {
			got := w.Check(q)
			var want bool
			if rhs < 0 {
				want = ref.IsUnique(q)
			} else {
				want = ref.CheckFD(q, rhs)
			}
			if got != want {
				t.Fatalf("walk rhs %d: Check(%v) = %v, planner says %v", rhs, q, got, want)
			}
			return got
		})
	}
	if got, want := p.CacheStats().FastChecks, ref.CacheStats().FastChecks; got != want {
		t.Fatalf("walks counted %d fast checks, the planner %d", got, want)
	}
}

// FuzzWalkCheckEquivalence differentially fuzzes the held-PLI path of Walk
// against Provider.IsUnique and Provider.CheckFD: on a random relation of
// 2–9 columns and up to 600 rows (enough for moves to decline large PLIs)
// every verdict of a walk-shaped query stream must match the planner's.
func FuzzWalkCheckEquivalence(f *testing.F) {
	f.Add(int64(1), int64(1), uint16(0x0305))
	f.Add(int64(2), int64(7), uint16(0xffff))
	f.Add(int64(3), int64(3), uint16(0x0101))
	f.Fuzz(func(t *testing.T, relSeed, streamSeed int64, shape uint16) {
		nCols := 2 + int(shape&7)
		card := 1 + int(shape>>3&3)
		rows := 1 + int(shape>>5)%600
		rel := checkRelation(t, rows, nCols, card, relSeed)
		checkWalkAgainst(t, NewProvider(rel, NewCache(2, 0, 0)), NewProvider(rel, nil), streamSeed, 64)
	})
}

// TestWalkHeldPathProbesNoCache pins the point of the held path: once a
// walk stands on a refuted node, its direct supersets are answered without
// a single cache probe.
func TestWalkHeldPathProbesNoCache(t *testing.T) {
	rel := checkRelation(t, 200, 8, 3, 5)
	p := NewProvider(rel, nil)
	for _, w := range []*Walk{p.UniqueWalk(), p.FDWalk(7)} {
		node := bitset.New(0, 1)
		if w.Check(node) {
			t.Fatalf("%v is not refuted on this relation", node)
		}
		before := p.CacheStats()
		// The first probe above the node moves the held PLI there; its
		// supersets are then one-column folds.
		for c := 2; c < 7; c++ {
			w.Check(node.With(c))
		}
		after := p.CacheStats()
		if probes := after.Hits + after.Misses - before.Hits - before.Misses; probes != 0 {
			t.Errorf("held-path checks made %d cache probes", probes)
		}
		if after.FastChecks-before.FastChecks != 5 {
			t.Errorf("held-path checks counted %d fast checks, want 5", after.FastChecks-before.FastChecks)
		}
	}
}

// TestWalkLeavesLargeNodesToPlanner checks the other side of the move
// rule: on a tall table of few distinct values an FD walk does not extend
// a PLI of thousands of rows, answers through the planner instead, and
// still agrees with it on every verdict.
func TestWalkLeavesLargeNodesToPlanner(t *testing.T) {
	rel := checkRelation(t, 3000, 12, 2, 4)
	p, ref := NewProvider(rel, nil), NewProvider(rel, nil)
	w := p.FDWalk(11)
	node := bitset.New(0, 1)
	if w.Check(node) || ref.CheckFD(node, 11) {
		t.Fatalf("%v → 11 holds on this relation", node)
	}
	if w.Check(node.With(2)) != ref.CheckFD(node.With(2), 11) {
		t.Fatalf("Check(%v) disagrees with the planner", node.With(2))
	}
	if w.heldPLI != nil || p.CacheStats().Intersections != 0 {
		t.Fatalf("the walk extended a PLI: held %v, %d intersections", w.held, p.CacheStats().Intersections)
	}
	checkWalkAgainst(t, p, ref, 3, 200)
}

// TestWalkHeldPathFiresFaults arms faults.PLIIntersect once a walk stands
// on a refuted node: the held path's fold over it, which probes no cache,
// must fire the point like the planner's folds do.
func TestWalkHeldPathFiresFaults(t *testing.T) {
	t.Cleanup(faults.Reset)
	rel := checkRelation(t, 200, 8, 3, 5)
	p := NewProvider(rel, nil)
	for _, w := range []*Walk{p.UniqueWalk(), p.FDWalk(7)} {
		node := bitset.New(0, 1)
		if w.Check(node) {
			t.Fatalf("%v is not refuted on this relation", node)
		}
		before := p.CacheStats()
		faults.Enable(faults.PLIIntersect, faults.ModePanic, 0)
		func() {
			defer func() {
				if e, ok := recover().(*faults.Error); !ok || e.Point != faults.PLIIntersect {
					t.Errorf("held-path check of %v did not fire the armed fault", node.With(2))
				}
			}()
			w.Check(node.With(2))
		}()
		faults.Reset()
		if after := p.CacheStats(); after.Hits+after.Misses != before.Hits+before.Misses {
			t.Errorf("the faulted check went through the planner")
		}
	}
}

// TestConcurrentWalks runs walks in two goroutines on one shared provider
// while a third goroutine snapshots CacheStats (run under -race by
// verify.sh): the walks' own PLIs and scratches must not race, and every
// verdict must match the materialised PLI's.
func TestConcurrentWalks(t *testing.T) {
	rel := checkRelation(t, 600, 7, 3, 9)
	p := NewProvider(rel, NewCache(2, 0, 0))
	ref := NewProvider(rel, nil)
	var want sync.Map
	truth := func(rhs int, q bitset.Set) bool {
		key := fmt.Sprint(rhs, q)
		if v, ok := want.Load(key); ok {
			return v.(bool)
		}
		pli := ref.Get(q)
		v := pli.IsUnique()
		if rhs >= 0 {
			v = q.Has(rhs) || pli.Refines(rel.Column(rhs))
		}
		want.Store(key, v)
		return v
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan string, 4)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for rhs := -1; rhs < rel.NumColumns(); rhs++ {
				w := p.UniqueWalk()
				if rhs >= 0 {
					w = p.FDWalk(rhs)
				}
				walkStream(rng, rel.NumColumns(), 300, func(q bitset.Set) bool {
					got := w.Check(q)
					if got != truth(rhs, q) {
						select {
						case errs <- fmt.Sprintf("goroutine %d rhs %d: Check(%v) = %v", g, rhs, q, got):
						default:
						}
					}
					return got
				})
			}
		}(g)
	}
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = p.CacheStats()
			}
		}
	}()
	wg.Wait()
	close(done)
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
