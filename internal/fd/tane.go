package fd

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/pli"
)

// Tane discovers all minimal FDs with the TANE algorithm (Huhtala et al.,
// referenced as the most popular FD algorithm in paper Sec. 2.3/6.3): a
// level-wise bottom-up traversal of the attribute lattice with rhs-candidate
// sets C+ for minimality pruning, partition refinement for validity checks,
// and key pruning. Validity is the error-sum form of Lemma 1: x \ {a} → a
// holds iff e(x \ {a}) = e(x), where e is the error sum of the stripped
// partition. Each node's e(x) is one single-column fold over its parent's
// PLI (TANE's partition product), the parent PLIs are built along a prefix
// path (see levelErrorSums), and only the previous level's error sums are
// kept, as ints.
//
// When collectUCCs is set, the keys encountered during pruning are returned
// as minimal UCCs. Note that TANE's C+ pruning may cut lattice regions that
// contain further minimal UCCs, so this collection is diagnostic only; the
// holistic algorithms use DUCC or FUN for complete UCC results.
func Tane(p *pli.Provider, collectUCCs bool) Result {
	res, _ := TaneContext(context.Background(), p, collectUCCs, 1)
	return res
}

// TaneContext runs TANE under a context: the level-wise loop polls ctx per
// lattice node and stops promptly when ctx is cancelled or its deadline
// passes, returning the partial result together with ctx.Err(). On a non-nil
// error the FD list is incomplete.
//
// workers bounds the goroutines computing the error sums of one level (<= 0
// selects GOMAXPROCS). Every node writes its error sum into an indexed slot
// and the verdicts are applied in node order, so the discovered FDs are
// identical for every worker count. The run neither probes nor fills the
// provider's PLI cache.
func TaneContext(ctx context.Context, p *pli.Provider, collectUCCs bool, workers int) (Result, error) {
	var res Result
	var err error
	rel := p.Relation()
	n := rel.NumColumns()
	store := NewStore()

	constants := ConstantColumns(p)
	constants.ForEach(func(a int) { store.Add(bitset.Set{}, a) })
	working := bitset.Full(n).Diff(constants)

	if !working.IsEmpty() {
		t := &taneState{
			ctx:         ctx,
			p:           p,
			working:     working,
			workers:     workers,
			cplus:       make(map[bitset.Set]bitset.Set),
			store:       store,
			res:         &res,
			collectUCCs: collectUCCs,
		}
		err = t.run()
	}

	res.FDs = store.All()
	bitset.Sort(res.MinimalUCCs)
	return res, err
}

type taneState struct {
	ctx     context.Context
	p       *pli.Provider
	working bitset.Set
	workers int

	// cplus holds the rhs-candidate sets C+(X) of every set processed so
	// far, plus on-demand reconstructions for sets that key pruning removed
	// before they were generated (C+(Y) = ⋂_{B∈Y} C+(Y\{B}), the TANE
	// paper's recomputation rule for pruned sets).
	cplus map[bitset.Set]bitset.Set

	store       *Store
	res         *Result
	collectUCCs bool
}

func (t *taneState) run() error {
	var level []bitset.Set
	t.working.ForEach(func(c int) { level = append(level, bitset.Single(c)) })
	// prevErr holds e(y) = |r| - |y|_r for the previous level's nodes with a
	// non-empty C, which include every survivor of its pruning; level 1
	// checks ∅ → A against e(∅).
	prevErr := map[bitset.Set]int{{}: t.p.Get(bitset.Set{}).ErrorSum()}

	for len(level) > 0 {
		// Resolve C+ of every direct subset and the candidate set C of
		// every node: cplusOf memoises reconstructions of pruned sets into
		// the shared map, which is why this pass stays sequential. A node
		// with an empty C has no candidate FD and is pruned below, so only
		// the nodes with a non-empty C need their error sum.
		cs := make([]bitset.Set, len(level))
		var counted []bitset.Set
		for i, x := range level {
			if err := t.ctx.Err(); err != nil {
				return err
			}
			c := t.working
			for b := x.First(); b >= 0; b = x.NextAfter(b) {
				c = c.Intersect(t.cplusOf(x.Without(b)))
			}
			cs[i] = c
			if !c.IsEmpty() {
				counted = append(counted, x)
			}
		}
		sums, err := levelErrorSums(t.ctx, t.p, t.workers, counted)
		if err != nil {
			return err
		}
		curErr := make(map[bitset.Set]int, len(counted))
		for i, x := range counted {
			curErr[x] = sums[i]
		}

		// COMPUTE_DEPENDENCIES: x \ {a} → a holds iff the two partitions
		// have the same error sum (Lemma 1), and x \ {a} is in the previous
		// level because AprioriGen keeps only candidates whose direct
		// subsets all survived.
		for i, x := range level {
			c := cs[i]
			e := curErr[x]
			candidates := x.Intersect(c)
			for a := candidates.First(); a >= 0; a = candidates.NextAfter(a) {
				lhs := x.Without(a)
				t.res.Checks++
				if prevErr[lhs] == e {
					t.store.Add(lhs, a)
					c = c.Without(a)
					c = c.Diff(t.working.Diff(x)) // remove all B ∈ R \ X
				}
			}
			t.cplus[x] = c
		}

		// PRUNE: drop empty-C+ nodes and keys (error sum 0); key pruning may
		// emit FDs. It runs after every node's C+ is set because handleKey
		// reads the C+ of other nodes of this level.
		var remaining []bitset.Set
		for _, x := range level {
			if t.cplus[x].IsEmpty() {
				continue
			}
			if curErr[x] == 0 {
				t.handleKey(x)
				continue
			}
			remaining = append(remaining, x)
		}

		prevErr = curErr
		level = bitset.AprioriGen(remaining)
	}
	return nil
}

// cplusOf returns C+(y), reconstructing it recursively when y was never
// generated because key pruning removed one of its subsets from the lattice.
func (t *taneState) cplusOf(y bitset.Set) bitset.Set {
	if y.IsEmpty() {
		return t.working // C+(∅) = R
	}
	if c, ok := t.cplus[y]; ok {
		return c
	}
	c := t.working
	for b := y.First(); b >= 0; b = y.NextAfter(b) {
		c = c.Intersect(t.cplusOf(y.Without(b)))
	}
	t.cplus[y] = c
	return c
}

// handleKey applies TANE's key pruning to the superkey x: x is removed from
// the level, and x → A is output for every A ∈ C+(x) \ x that is in the C+
// of every other co-atom of x ∪ {A} (which certifies minimality).
func (t *taneState) handleKey(x bitset.Set) {
	if t.collectUCCs {
		// A key that survived into the level has only non-key subsets,
		// making it a minimal UCC (within the lattice region C+ kept).
		t.res.MinimalUCCs = append(t.res.MinimalUCCs, x)
	}
	extra := t.cplus[x].Diff(x)
	for a := extra.First(); a >= 0; a = extra.NextAfter(a) {
		ok := true
		for b := x.First(); b >= 0; b = x.NextAfter(b) {
			if !t.cplusOf(x.With(a).Without(b)).Has(a) {
				ok = false
				break
			}
		}
		if ok {
			t.store.Add(x, a)
		}
	}
}
