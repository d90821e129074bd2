// Package walker implements the randomized lattice traversal shared by DUCC
// (paper Sec. 2.2) and by MUDS' R\Z sub-lattice phase (paper Sec. 4.2/5.2).
//
// Both problems are instances of learning a monotone predicate over the
// subset lattice of a base column set: uniqueness of a column combination
// (DUCC) and "X functionally determines a fixed attribute A" (MUDS; the
// downward pruning of Lemma 4 is exactly the monotonicity of that
// predicate). The walker finds the minimal true sets and the maximal false
// sets by walking up from false nodes and down from true nodes, pruning with
// the column-bitmap set families of package settrie, and filling unvisited
// "holes" by comparing the found minimal true sets against the minimal
// hitting sets of the complements of the found maximal false sets.
package walker

import (
	"context"
	"math/rand"
	"slices"

	"holistic/internal/bitset"
	"holistic/internal/settrie"
)

// Predicate decides a monotone property of column sets within the base
// lattice: pred(s) true implies pred(t) for every t ⊇ s.
type Predicate func(s bitset.Set) bool

// Result of a lattice walk.
type Result struct {
	// MinimalTrue are the minimal sets satisfying the predicate, sorted.
	MinimalTrue []bitset.Set
	// MaximalFalse are the maximal sets falsifying the predicate, sorted.
	// Together the two families decide the whole lattice.
	MaximalFalse []bitset.Set
	// Checks counts the predicate evaluations (the validity checks that
	// pruning could not avoid).
	Checks int
}

// Options configures a walk.
type Options struct {
	// Seed fixes the randomized traversal order. Results are independent of
	// the seed; only the number of checks varies.
	Seed int64
	// KnownTrue seeds the walk with sets already certified true (e.g. the
	// still-valid FD left-hand sides of an incremental repair). They are
	// trusted without re-evaluation. Ideally they are already minimal; a
	// non-minimal seed is repaired during hole filling at the cost of
	// extra predicate evaluations.
	KnownTrue []bitset.Set
	// KnownFalse seeds the walk with sets already certified false (e.g. the
	// R\Z rule of paper Sec. 4: no subset of R\Z determines a column of Z).
	// They are trusted without re-evaluation.
	KnownFalse []bitset.Set
}

// RunContext learns the monotone predicate over the subsets of base,
// checking ctx between predicate evaluations. When ctx is cancelled or its
// deadline passes, the walk stops promptly and returns the partial Result
// together with ctx.Err(). A partial result may miss certificates and may
// contain non-minimal (resp. non-maximal) sets — on a non-nil error the
// families are progress information, not answers.
func RunContext(ctx context.Context, base bitset.Set, pred Predicate, opts Options) (Result, error) {
	w := &state{
		ctx:  ctx,
		base: base,
		pred: pred,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	for _, s := range opts.KnownFalse {
		w.falses.Add(s.Intersect(base))
	}
	for _, s := range opts.KnownTrue {
		if !s.IsSubsetOf(base) || s.IsEmpty() {
			continue
		}
		w.trues.Add(s)
	}
	w.run()

	res := Result{Checks: w.checks}
	res.MinimalTrue = w.trues.All()
	bitset.Sort(res.MinimalTrue)
	res.MaximalFalse = w.falses.All()
	bitset.Sort(res.MaximalFalse)
	return res, w.err
}

type state struct {
	ctx    context.Context
	base   bitset.Set
	pred   Predicate
	rng    *rand.Rand
	trues  settrie.MinimalFamily
	falses settrie.MaximalFamily
	checks int
	err    error
}

// cancelled reports whether the walk should stop, latching ctx's error. The
// ctx poll costs an uncontended mutex acquisition, tens of nanoseconds. It
// runs once per walk step, and a step does set-family lookups and usually
// a predicate evaluation. In the profiling walks the cheapest evaluation is
// a one-column fold over a PLI the pli.Walk holds, which scans every
// non-singleton row of that PLI once, so the poll stays a small share of a
// step.
func (w *state) cancelled() bool {
	if w.err != nil {
		return true
	}
	if err := w.ctx.Err(); err != nil {
		w.err = err
		return true
	}
	return false
}

func (w *state) run() {
	if w.base.IsEmpty() {
		return
	}
	// Phase 1: classify single columns; true singles are minimal, false
	// singles seed the walk.
	var falseSingles []int
	w.base.ForEach(func(c int) {
		if w.cancelled() {
			return
		}
		s := bitset.Single(c)
		if _, known := w.classified(s); known {
			// Pre-seeded certificate already decides this column.
			if !w.falses.CoversSupersetOf(s) {
				return
			}
			falseSingles = append(falseSingles, c)
			return
		}
		if w.check(s) {
			w.trues.Add(s)
		} else {
			w.falses.Add(s)
			falseSingles = append(falseSingles, c)
		}
	})

	// Phase 2: random walk from 2-column seeds over the false columns.
	var seeds []bitset.Set
	for i := 0; i < len(falseSingles); i++ {
		for j := i + 1; j < len(falseSingles); j++ {
			seeds = append(seeds, bitset.New(falseSingles[i], falseSingles[j]))
		}
	}
	w.rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
	for _, s := range seeds {
		if w.cancelled() {
			return
		}
		w.walk(s)
	}

	// Phase 3: fill holes until the minimal hitting sets of the complements
	// of the maximal false sets coincide with the found minimal true sets.
	for !w.cancelled() && w.fillHoles() {
	}
}

func (w *state) classified(s bitset.Set) (value, known bool) {
	if w.trues.CoversSubsetOf(s) {
		return true, true
	}
	if w.falses.CoversSupersetOf(s) {
		return false, true
	}
	return false, false
}

func (w *state) check(s bitset.Set) bool {
	w.checks++
	return w.pred(s)
}

// resolve returns the predicate value of s, via the stores when possible.
func (w *state) resolve(s bitset.Set) bool {
	if v, known := w.classified(s); known {
		return v
	}
	return w.check(s)
}

// walk classifies s and records the minimal-true or maximal-false endpoint
// reached from it. It reports whether a new certificate entered the stores.
func (w *state) walk(s bitset.Set) bool {
	if w.cancelled() {
		return false
	}
	if _, known := w.classified(s); known {
		return false
	}
	if w.check(s) {
		return w.trues.Add(w.minimize(s))
	}
	return w.falses.Add(w.maximize(s))
}

// minimize walks down from the true set s until no direct subset is true.
func (w *state) minimize(s bitset.Set) bitset.Set {
	for !w.cancelled() {
		cols := s.Columns()
		w.rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		descended := false
		for _, c := range cols {
			sub := s.Without(c)
			if sub.IsEmpty() {
				continue
			}
			if w.resolve(sub) {
				s = sub
				descended = true
				break
			}
			w.falses.Add(sub)
		}
		if !descended {
			return s
		}
	}
	return s // cancelled mid-descent: partial, reported via the walk's error
}

// maximize walks up from the false set s until every direct superset within
// base is true.
func (w *state) maximize(s bitset.Set) bitset.Set {
	for !w.cancelled() {
		missing := w.base.Diff(s).Columns()
		w.rng.Shuffle(len(missing), func(i, j int) { missing[i], missing[j] = missing[j], missing[i] })
		ascended := false
		for _, c := range missing {
			sup := s.With(c)
			if !w.resolve(sup) {
				s = sup
				ascended = true
				break
			}
		}
		if !ascended {
			return s
		}
	}
	return s // cancelled mid-ascent: partial, reported via the walk's error
}

func (w *state) fillHoles() bool {
	falses := w.falses.All()
	complements := make([]bitset.Set, len(falses))
	for i, m := range falses {
		complements[i] = w.base.Diff(m)
	}
	candidates, err := MinimalHittingSets(w.ctx, complements, w.base)
	if err != nil {
		w.err = err // cancelled: partial candidates are not walked
		return false
	}
	progress := false
	for _, cand := range candidates {
		// The empty hitting set arises only when there is no false
		// certificate at all; minimal true sets are non-empty by definition
		// here (the empty set's value is the caller's concern).
		if cand.IsEmpty() || w.trues.Contains(cand) {
			continue
		}
		if w.walk(cand) {
			progress = true
		}
	}
	// Dually, a found minimal-true set that is not a minimal hitting set
	// signals a missing maximal-false certificate below it. The candidates
	// are sorted, so membership is a binary search.
	for _, u := range w.trues.All() {
		if _, hit := slices.BinarySearchFunc(candidates, u, bitset.Compare); hit {
			continue
		}
		for _, sub := range u.DirectSubsets() {
			if sub.IsEmpty() {
				continue
			}
			if w.walk(sub) {
				progress = true
			}
		}
	}
	return progress
}
