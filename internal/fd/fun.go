package fd

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/pli"
	"holistic/internal/settrie"
)

// Fun discovers all minimal FDs with the FUN strategy (Novelli/Cicchetti,
// paper Sec. 2.3): a level-wise traversal restricted to free sets, with
// cardinality counts for validity checks, FUN's recursive cardinality
// inference for non-free sets (the "fast counting inference" that lets FUN
// skip PLI work TANE would perform), and key pruning. Each candidate's count
// is one single-column fold over its parent's PLI, and the parent PLIs are
// built along a prefix path, never stored across levels (see
// levelErrorSums). A valid FD's minimality is one subset query on the
// family of left-hand sides already emitted for its right-hand side (see
// emitFDs).
//
// Fun always returns the minimal UCCs it traverses: by Lemma 3 of the paper
// every minimal UCC is a free set, so collecting keys costs nothing extra.
// This is exactly the Holistic FUN extension of paper Sec. 3.2.
func Fun(p *pli.Provider) Result {
	res, _ := FunContext(context.Background(), p, 1)
	return res
}

// FunContext runs FUN under a context: the level-wise loop polls ctx per
// level and per counted candidate and stops promptly when ctx is cancelled
// or its deadline passes, returning the partial result together with
// ctx.Err(). On a non-nil error the FD and UCC lists are incomplete.
//
// workers bounds the goroutines counting candidate cardinalities within one
// level (<= 0 selects GOMAXPROCS). Each candidate writes its count into its
// own indexed slot and the slots are applied in candidate order, so the
// discovered FDs and UCCs are identical for every worker count. The run
// neither probes nor fills the provider's PLI cache.
func FunContext(ctx context.Context, p *pli.Provider, workers int) (Result, error) {
	var res Result
	var err error
	rel := p.Relation()
	n := rel.NumColumns()
	store := NewStore()

	constants := ConstantColumns(p)
	constants.ForEach(func(a int) { store.Add(bitset.Set{}, a) })
	working := bitset.Full(n).Diff(constants)

	if rel.NumRows() <= 1 {
		// Degenerate relations: every column is constant (so all FDs are
		// ∅ → A, already emitted) and every single column is trivially a
		// minimal UCC.
		for c := 0; c < n; c++ {
			res.MinimalUCCs = append(res.MinimalUCCs, bitset.Single(c))
		}
	} else if !working.IsEmpty() {
		f := &funState{
			ctx:     ctx,
			p:       p,
			working: working,
			nRows:   rel.NumRows(),
			workers: workers,
			counts:  map[bitset.Set]int{{}: 1},
			perRHS:  make([]settrie.MinimalFamily, n),
			store:   store,
			res:     &res,
		}
		err = f.run()
		res.MinimalUCCs = f.keys.All()
	}

	res.FDs = store.All()
	bitset.Sort(res.MinimalUCCs)
	return res, err
}

type funState struct {
	ctx     context.Context
	p       *pli.Provider
	working bitset.Set
	nRows   int
	workers int

	// counts holds |X|_r for every computed set: all free sets and the
	// non-free "boundary" candidates classified during generation. Counts of
	// other sets are inferred (FUN's cardinality inference) and memoised.
	counts map[bitset.Set]int
	// keys holds the minimal UCCs (free sets with count == nRows).
	keys settrie.MinimalFamily
	// perRHS[a] holds the emitted minimal left-hand sides of a.
	perRHS []settrie.MinimalFamily

	store *Store
	res   *Result
}

func (f *funState) run() error {
	// Level 1: every non-constant single column is a free set.
	var level []bitset.Set
	f.working.ForEach(func(c int) {
		s := bitset.Single(c)
		f.counts[s] = f.p.Relation().Cardinality(c)
		level = append(level, s)
	})

	for len(level) > 0 {
		if err := f.ctx.Err(); err != nil {
			return err
		}
		// Classify keys, then generate and count the next level, and only
		// then emit this level's FDs: the validity check of x → a needs the
		// true cardinality of x ∪ {a}, which for a free x ∪ {a} exists only
		// after the next level is counted (cardinality inference is valid
		// for non-free sets exclusively).
		var expandable []bitset.Set
		for _, x := range level {
			if f.counts[x] == f.nRows {
				f.keys.Add(x) // minimal UCC (Lemma 3); supersets are non-free
				continue
			}
			expandable = append(expandable, x)
		}

		// Count the candidates of the next level, one fold over each
		// candidate's parent PLI (levelErrorSums). Key pruning is implicit:
		// AprioriGen keeps only candidates whose direct subsets are all
		// expandable, and a superset of a key is never free, so no candidate
		// contains a key and every candidate is a counted check.
		cands := bitset.AprioriGen(expandable)
		sums, err := levelErrorSums(f.ctx, f.p, f.workers, cands)
		if err != nil {
			return err
		}
		var next []bitset.Set
		for i, cand := range cands {
			cnt := f.nRows - sums[i]
			f.counts[cand] = cnt
			f.res.Checks++
			if f.isFree(cand, cnt) {
				next = append(next, cand)
			}
		}

		for _, x := range level {
			f.emitFDs(x)
		}
		level = next
	}
	return nil
}

// isFree reports whether x with cardinality cnt is a free set: no direct
// subset has the same cardinality (Definition 1; checking direct subsets
// suffices because counts are monotone).
func (f *funState) isFree(x bitset.Set, cnt int) bool {
	for c := x.First(); c >= 0; c = x.NextAfter(c) {
		if f.counts[x.Without(c)] == cnt {
			return false
		}
	}
	return true
}

// emitFDs outputs every minimal FD x → a for the free set x: x → a holds
// iff |x| = |x ∪ {a}| (Lemma 1), and it is minimal iff no emitted left-hand
// side of a is a subset of x. The family test is exact because every
// minimal left-hand side is a free set (a non-free one has a direct subset
// with the same count, which determines a too) and levels are emitted in
// ascending size, so when x is emitted every minimal left-hand side of a
// smaller than x is already in perRHS[a].
func (f *funState) emitFDs(x bitset.Set) {
	cntX := f.counts[x]
	rhs := f.working.Diff(x)
	for a := rhs.First(); a >= 0; a = rhs.NextAfter(a) {
		if f.count(x.With(a)) != cntX || f.perRHS[a].CoversSubsetOf(x) {
			continue
		}
		f.perRHS[a].Add(x)
		f.store.Add(x, a)
	}
}

// count returns |y|_r, inferring it for sets that were never computed: a
// non-free set has the cardinality of its largest direct subset (FUN's
// cardinality inference), and supersets of keys have nRows rows. Inferred
// values are memoised.
func (f *funState) count(y bitset.Set) int {
	if c, ok := f.counts[y]; ok {
		return c
	}
	if f.keys.CoversSubsetOf(y) {
		f.counts[y] = f.nRows
		return f.nRows
	}
	max := 0
	for c := y.First(); c >= 0; c = y.NextAfter(c) {
		if n := f.count(y.Without(c)); n > max {
			max = n
		}
	}
	f.counts[y] = max
	return max
}
