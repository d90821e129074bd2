package pli

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/parallel"
)

// TestScratchWorkerSlotReuse exercises the worker-slot ownership contract
// under the real pool (run with -race): each slot owns one Scratch reused
// across many FromColumnScratch/IntersectColumnScratch calls, folding each
// column pair in both orders, and every result must match the sequentially
// computed expectation.
// A scratch-reset bug (counts left dirty between calls) or a slot shared by
// two goroutines shows up as a wrong cluster or a race report.
func TestScratchWorkerSlotReuse(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	r := randomRelation(rnd, 6, 400, 5)
	for r.NumColumns() < 3 {
		r = randomRelation(rnd, 6, 400, 5)
	}
	n := r.NumColumns()

	type task struct{ a, b int }
	var tasks []task
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			tasks = append(tasks, task{a, b})
		}
	}
	// Repeat the task list so slots are reused many times per worker.
	for i := 0; i < 4; i++ {
		tasks = append(tasks, tasks...)
	}

	want := make([][][]int32, len(tasks))
	for i, tk := range tasks {
		pa := FromColumn(r.Column(tk.a), r.Cardinality(tk.a))
		want[i] = canon(pa.IntersectColumn(r.Column(tk.b), r.Cardinality(tk.b)))
	}

	const workers = 8
	scratches := make([]*Scratch, workers)
	got := make([][][]int32, len(tasks))
	err := parallel.ForWorker(context.Background(), workers, len(tasks), func(w, i int) {
		s := scratches[w]
		if s == nil {
			s = NewScratch()
			scratches[w] = s
		}
		tk := tasks[i]
		pa := FromColumnScratch(r.Column(tk.a), r.Cardinality(tk.a), s)
		pb := FromColumnScratch(r.Column(tk.b), r.Cardinality(tk.b), s)
		viaCol := pa.IntersectColumnScratch(r.Column(tk.b), r.Cardinality(tk.b), s)
		swapped := pb.IntersectColumnScratch(r.Column(tk.a), r.Cardinality(tk.a), s)
		if !reflect.DeepEqual(canon(viaCol), canon(swapped)) {
			t.Errorf("task %d: folding %d over %d and %d over %d disagree", i, tk.b, tk.a, tk.a, tk.b)
		}
		got[i] = canon(viaCol)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("task %d (%v): scratch-arena result %v, want %v", i, tasks[i], got[i], want[i])
		}
	}
}

// TestScratchPoolConcurrentProviders exercises the sync.Pool fallback (run
// with -race): many goroutines drive a shared concurrent Provider through
// uncached multi-column Gets, all of which borrow pooled scratches for their
// intersections. Results must match the sequential brute force.
func TestScratchPoolConcurrentProviders(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	r := randomRelation(rnd, 6, 300, 4)
	for r.NumColumns() < 4 {
		r = randomRelation(rnd, 6, 300, 4)
	}
	n := r.NumColumns()
	p := NewProvider(r, NewCache(8, 8, 0)) // tiny cache forces constant recomputation

	var sets []bitset.Set
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			sets = append(sets, bitset.New(a, b))
			if c := (b + 1) % n; c != a && c != b {
				sets = append(sets, bitset.New(a, b, c))
			}
		}
	}
	want := make([][][]int32, len(sets))
	for i, s := range sets {
		want[i] = brutePLI(r, s)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(sets); i++ {
				j := (g + i) % len(sets)
				if got := canon(p.Get(sets[j])); !reflect.DeepEqual(got, want[j]) {
					t.Errorf("goroutine %d: Get(%v) = %v, want %v", g, sets[j], got, want[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
