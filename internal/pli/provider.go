package pli

import (
	"context"
	"sync/atomic"

	"holistic/internal/bitset"
	"holistic/internal/faults"
	"holistic/internal/parallel"
	"holistic/internal/relation"
)

// Provider computes and caches PLIs for arbitrary column combinations of one
// relation. It is the "shared data structure" of the holistic algorithms
// (paper Sec. 3): a single Provider is handed from the UCC phase to the FD
// phases so that intersections computed once are reused. A Provider
// describes its relation's rows as they were when it was built; nothing
// patches it after a relation.Append, so an incremental session builds a
// fresh one for each appended batch and drops it when the batch is done.
//
// The lattice walks — DUCC, MUDS' per-RHS FD walks and their incremental
// repairs — check sets through a Walk (walk.go). Most of their checks probe
// a direct superset of the node the walk stands on; the Walk holds that
// node's PLI outside the cache and answers each such check with one fold
// over it, probing no cache. Their other checks — the downward steps, the
// hole-filling jumps, the first check of every upward walk — go through the
// planner below, like IsUnique and CheckFDs. The level-wise FD algorithms
// (FUN, TANE) build their PLIs with the uncached Extend step and never probe
// or fill the cache.
//
// Get's lookup strategy for an uncached set X: if any PLI of X minus one
// column is cached, extend it with one column intersection; otherwise fold
// over X's columns in ascending order, caching every prefix. No walk calls
// Get; it is the materializing path for callers that need the PLI itself.
//
// The multi-column store behind Get is the sharded Cache (see cache.go).
//
// # Validation fast path
//
// The boolean questions — IsUnique, CheckFDs, ForEachCluster —
// go through the non-materializing check kernels of check.go: plan picks
// the cheapest cached ancestor of the probed set (fewest stored rows wins —
// direct subsets, distance-2 subsets, ascending prefixes and singles are
// all candidates) and the missing columns are folded over its clusters
// with early exit, building no PLI at all. Admission control keeps
// validate-only probes from flooding the byte-budgeted cache. The FD checks
// admit nothing: a refuted or confirmed FD verdict is pure scanning.
// IsUnique is verdict-aware: a refuted probe is the walk's reuse path (DUCC
// ascends from it), so its survivors — already in hand from the fused fold
// that derived the verdict — are admitted as a stepping stone, while
// confirmed-unique probes, whose supersets DUCC prunes, are never
// materialised. A Walk's uniqueness checks admit the same way, whether
// they are planned or folded over the held PLI. A plan stuck at fold
// distance >= 2 may additionally promote ONE intermediate (the ancestor
// extended by one column), gated by a doorkeeper that admits on the second
// request, so one-shot probe sweeps cost zero promotions. The FastChecks
// and Materializations counters in CacheStats expose the split.
//
// Concurrency contract: a Provider is always safe to share across
// goroutines. After construction it is immutable except for the atomic
// counters, the doorkeeper and the concurrency-safe Cache, so Get, IsUnique,
// CheckFDs, ForEachCluster, Extend and ErrorSumWith may be called
// from any number of goroutines (Extend and ErrorSumWith need one Scratch
// per goroutine, and a Walk serves one goroutine). Concurrent Gets of the same uncached combination
// may duplicate an intersection — both goroutines compute and store the
// same PLI — which wastes a little work but never produces a wrong result,
// because PLIs are immutable once built. The fast paths borrow pooled
// Scratch arenas per call (see scratch.go), so they hold no shared mutable
// state across goroutines.
type Provider struct {
	rel    *relation.Relation
	single []*PLI
	empty  *PLI
	cache  *Cache

	// admit is the promotion doorkeeper: hash-indexed reference counters over
	// candidate promotion sets. A fold-distance >= 2 plan materialises its one
	// promotion only when the candidate has been wanted before, so a one-shot
	// probe sweep (DUCC walking a lattice region it never returns to) admits
	// nothing at all, while genuinely hot ancestors are admitted on their
	// second request. Hash collisions only make admission slightly more eager,
	// never wrong.
	admit [admitSlots]atomic.Uint32

	// intersections counts the column intersections performed, and the
	// other two are the fast-path counters; CacheStats reports all three.
	// Updated with sync/atomic so a Provider shared across workers stays
	// race-free.
	intersections    atomic.Int64
	fastChecks       atomic.Int64
	materializations atomic.Int64
}

// admitSlots sizes the promotion doorkeeper (16 KiB of counters per
// Provider). Must be a power of two.
const admitSlots = 1 << 12

// NewProvider builds a Provider for rel that stores multi-column PLIs in
// cache. cache == nil selects a one-shard NewCache(1, 0, 0): the default
// entry bound and no byte budget.
//
// The single-column PLIs are built concurrently, one indexed slot per column
// across GOMAXPROCS workers; the result is identical to the sequential build
// because each column's PLI depends only on that column's data. Each worker
// slot owns one Scratch arena sized to the relation's maximum cardinality
// (the worker-slot ownership contract of scratch.go), so the whole build
// performs one grouping-arena allocation per worker, not one per column.
func NewProvider(rel *relation.Relation, cache *Cache) *Provider {
	if cache == nil {
		cache = NewCache(1, 0, 0)
	}
	p := &Provider{
		rel:    rel,
		single: make([]*PLI, rel.NumColumns()),
		empty:  FromAllRows(rel.NumRows()),
		cache:  cache,
	}
	maxCard := rel.MaxCardinality()
	scratches := make([]*Scratch, parallel.Workers(0))
	parallel.ForWorker(context.Background(), parallel.Workers(0), rel.NumColumns(), func(w, c int) {
		s := scratches[w]
		if s == nil {
			s = NewScratch()
			s.Ensure(maxCard)
			scratches[w] = s
		}
		p.single[c] = FromColumnScratch(rel.Column(c), rel.Cardinality(c), s)
	})
	return p
}

// Relation returns the underlying relation.
func (p *Provider) Relation() *relation.Relation { return p.rel }

// SingleColumn returns the cached PLI of one column.
func (p *Provider) SingleColumn(c int) *PLI { return p.single[c] }

// Get returns the PLI of the column combination s, computing and caching it
// if necessary.
func (p *Provider) Get(s bitset.Set) *PLI {
	switch s.Len() {
	case 0:
		return p.empty
	case 1:
		return p.single[s.First()]
	}
	if pli, ok := p.cacheGet(s); ok {
		return pli
	}
	// Fast path: extend a cached direct subset by one column.
	for c := s.First(); c >= 0; c = s.NextAfter(c) {
		sub := s.Without(c)
		if base, ok := p.lookup(sub); ok {
			pli := p.intersectColumn(base, c)
			p.cachePut(s, pli)
			return pli
		}
	}
	// Slow path: fold over ascending columns, caching prefixes.
	cols := s.Columns()
	prefix := bitset.Single(cols[0])
	pli := p.single[cols[0]]
	for _, c := range cols[1:] {
		prefix = prefix.With(c)
		if cached, ok := p.lookup(prefix); ok {
			pli = cached
			continue
		}
		pli = p.intersectColumn(pli, c)
		p.cachePut(prefix, pli)
	}
	return pli
}

// intersectColumn performs one counted column intersection on a scratch
// from the package pool (Get is called from arbitrary goroutines, so no
// worker slot is available here; see scratch.go). The result is fresh and
// shrunk to fit, as a cached PLI must be.
func (p *Provider) intersectColumn(base *PLI, c int) *PLI {
	s := getScratch()
	defer putScratch(s)
	return p.Extend(nil, base, c, s)
}

// Extend returns the PLI of X ∪ {c} given base, the PLI of X, as one counted
// column intersection on the caller-owned Scratch s. The result is not
// cached. dst == nil allocates a fresh, shrink-to-fit PLI. A non-nil dst is
// overwritten in place and returned, reusing its arrays: this is the
// prefix-path step of the level-wise FD algorithms, which own one PLI per
// path depth outside the cache. dst must then be a PLI the caller built with
// Extend, never base, a SingleColumn PLI or any other PLI the Provider or
// its cache hands out. The armed faults.PLIIntersect point panics here
// (there is no error channel); the engine's panic isolation converts it into
// a failed job.
func (p *Provider) Extend(dst, base *PLI, c int, s *Scratch) *PLI {
	faults.Check(faults.PLIIntersect)
	out := base.intersectKeyed(dst, p.rel.Column(c), p.rel.Cardinality(c), s)
	p.intersections.Add(1)
	return out
}

// ErrorSumWith returns the error sum of X ∪ {c} given base, the PLI of X,
// with one single-column error-sum fold on the caller-owned Scratch s:
// |X ∪ {c}|_r = NumRows - ErrorSumWith, and no PLI is built. It counts as
// one fast check, and the armed faults.PLIIntersect point fires here as on
// every fold.
func (p *Provider) ErrorSumWith(base *PLI, c int, s *Scratch) int {
	faults.Check(faults.PLIIntersect)
	p.fastChecks.Add(1)
	return base.checkErrorSum1(p.rel.Column(c), p.rel.Cardinality(c), s)
}

// cacheGet probes the multi-column cache. Under an armed faults.CacheGet
// point the cache degrades to "always miss": the Provider recomputes the
// PLI, slower but correct.
func (p *Provider) cacheGet(s bitset.Set) (*PLI, bool) {
	if faults.Degraded(faults.CacheGet) {
		return nil, false
	}
	return p.cache.get(s)
}

// cachePut stores into the multi-column cache. Under an armed
// faults.CachePut point the store is dropped: later probes recompute.
func (p *Provider) cachePut(s bitset.Set, pli *PLI) {
	if faults.Degraded(faults.CachePut) {
		return
	}
	p.cache.put(s, pli)
}

func (p *Provider) lookup(s bitset.Set) (*PLI, bool) {
	switch s.Len() {
	case 0:
		return p.empty, true
	case 1:
		return p.single[s.First()], true
	}
	return p.cacheGet(s)
}

// CacheStats snapshots the cache behaviour of this Provider: probe hits and
// misses, evictions, the current entry count and bytes, the intersections
// performed, and the fast-path counters (FastChecks, Materializations). The
// snapshot is what the engine reports to its Observer.
func (p *Provider) CacheStats() CacheStats {
	st := p.cache.stats()
	st.Intersections = p.intersections.Load()
	st.FastChecks = p.fastChecks.Load()
	st.Materializations = p.materializations.Load()
	return st
}

// plan resolves the cheapest way to answer a question about set: the cached
// PLI itself (fold empty), or the best cached ancestor plus the columns to
// fold over its clusters. Candidates are the cached direct subsets (fold
// distance 1), every cached ascending prefix, and the cheapest single
// column; among them the lowest (stored rows + 1) * fold-distance score
// wins — fewest non-singleton rows to scan, fewest fold steps.
//
// Admission control: when the winner sits at fold distance >= 2, plan
// considers exactly ONE promotion — the winner extended by its first fold
// column — and materialises it only when the doorkeeper has already seen a
// request for that candidate (admit-on-second-request, TinyLFU style). A
// validate-only probe therefore admits at most one intermediate PLI per
// check and usually none, so DUCC's random probes cannot flood the
// byte-budgeted cache with slow-path prefixes the way Get's
// cache-every-prefix policy would, and a one-shot sweep of a lattice region
// materialises nothing at all; sustained probing of a region still promotes
// its ancestor frontier until checks there are distance-1 folds.
func (p *Provider) plan(set bitset.Set, sc *Scratch) (*PLI, []int) {
	if pli, ok := p.lookup(set); ok {
		return pli, nil
	}
	// Cached direct subsets: fold distance 1, no admission needed.
	var base *PLI
	var baseSet bitset.Set
	bestCol := -1
	for c := set.First(); c >= 0; c = set.NextAfter(c) {
		sub := set.Without(c)
		if q, ok := p.lookup(sub); ok && (base == nil || len(q.rows) < len(base.rows)) {
			base, baseSet, bestCol = q, sub, c
		}
	}
	if base != nil {
		return base, append(sc.foldColSlots(1), bestCol)
	}
	// Cached distance-2 subsets (including the single columns when the set
	// has exactly three): a two-column fold is still cheap enough that no
	// admission is worth it. This scan is what makes the stepping stones of
	// the verdict-aware admission (see IsUnique) reachable — they sit at
	// arbitrary subsets, not on the ascending-prefix chains the fallback
	// below probes.
	var bestCol2 int
	for c := set.First(); c >= 0; c = set.NextAfter(c) {
		for c2 := set.NextAfter(c); c2 >= 0; c2 = set.NextAfter(c2) {
			sub := set.Without(c).Without(c2)
			if q, ok := p.lookup(sub); ok && (base == nil || len(q.rows) < len(base.rows)) {
				base, baseSet = q, sub
				bestCol, bestCol2 = c, c2
			}
		}
	}
	if base != nil {
		return base, append(sc.foldColSlots(2), bestCol, bestCol2)
	}
	// No subset within distance 2 cached (set has >= 4 columns): best
	// ascending cached prefix vs cheapest single column, scored by
	// rows-to-scan x fold-steps.
	first := set.First()
	prefix := bitset.Single(first)
	prefixPLI := p.single[first]
	prefixSet := prefix
	covered, idx := 1, 1
	for c := set.NextAfter(first); c >= 0; c = set.NextAfter(c) {
		idx++
		if idx == set.Len() {
			break // the full set itself — known uncached
		}
		prefix = prefix.With(c)
		if q, ok := p.cacheGet(prefix); ok {
			prefixPLI, prefixSet, covered = q, prefix, idx
		}
	}
	single := first
	for c := set.NextAfter(first); c >= 0; c = set.NextAfter(c) {
		if len(p.single[c].rows) < len(p.single[single].rows) {
			single = c
		}
	}
	base, baseSet = prefixPLI, prefixSet
	score := (int64(len(prefixPLI.rows)) + 1) * int64(set.Len()-covered)
	if s := (int64(len(p.single[single].rows)) + 1) * int64(set.Len()-1); s < score {
		base, baseSet = p.single[single], bitset.Single(single)
	}
	fold := sc.foldColSlots(set.Len())
	for c := set.First(); c >= 0; c = set.NextAfter(c) {
		if !baseSet.Has(c) {
			fold = append(fold, c)
		}
	}
	if len(fold) >= 2 {
		cand := baseSet.With(fold[0])
		if p.admit[cand.Hash()&(admitSlots-1)].Add(1) >= 2 {
			promoted := p.intersectColumn(base, fold[0])
			p.cachePut(cand, promoted)
			p.materializations.Add(1)
			base = promoted
			fold = fold[1:]
		}
	}
	return base, fold
}

// foldKeys fills the scratch key slots with the column data and
// cardinalities of a fold plan. It is called exactly once per executed fold
// kernel, so the armed faults.PLIIntersect point fires here too: a fold is
// the fast path's intersection traversal, and injected PLI failures must
// surface on it just as they do on materializing intersections.
func (p *Provider) foldKeys(fold []int, sc *Scratch) ([][]int32, []int) {
	faults.Check(faults.PLIIntersect)
	keys, cards := sc.keySlots(len(fold))
	for i, c := range fold {
		keys[i] = p.rel.Column(c)
		cards[i] = p.rel.Cardinality(c)
	}
	return keys, cards
}

// IsUnique reports whether s is a unique column combination, answered on
// the validation fast path: cached verdict if s itself is cached, otherwise
// one combined foldPLI pass over the cheapest cached ancestor.
//
// Unlike the boolean FD checks, a uniqueness verdict cannot early-exit on
// confirmation — proving "no duplicate survives" needs the whole base — so
// the fused fold derives the verdict and the materialisation from the same
// pass: for a unique verdict nothing survives, no placement work happens
// and the result is discarded (a unique s is a dead end — DUCC prunes every
// superset, so its empty PLI would never be consulted again); for a refuted
// verdict the survivors ARE the stepping stone the walk ascends from next,
// admitted at zero extra scan cost. Verdict-aware admission is what keeps
// DUCC probes from flooding the byte-budgeted cache: only refuted probes —
// the reuse path — are admitted, roughly a third of the entries the
// materializing path would insert, while confirmations cost no admission at
// all.
func (p *Provider) IsUnique(s bitset.Set) bool {
	if s.IsEmpty() {
		return p.rel.NumRows() <= 1
	}
	p.fastChecks.Add(1)
	sc := getScratch()
	defer putScratch(sc)
	base, fold := p.plan(s, sc)
	ok, _ := p.uniqueFrom(s, base, fold, sc)
	return ok
}

// uniqueFrom answers IsUnique(s) by folding the columns fold over base, the
// PLI of s minus fold. A refuted s has its PLI built by the fold; it is
// admitted to the cache and returned.
func (p *Provider) uniqueFrom(s bitset.Set, base *PLI, fold []int, sc *Scratch) (bool, *PLI) {
	if len(fold) == 0 {
		return base.IsUnique(), base
	}
	keys, cards := p.foldKeys(fold, sc)
	out := base.foldPLI(keys, cards, sc)
	if out.IsUnique() {
		return true, nil
	}
	p.cachePut(s, out)
	p.materializations.Add(1)
	return false, out
}

// refinesFrom reports whether the FD (base's columns plus fold) → rhs holds,
// by folding the columns fold over base.
func (p *Provider) refinesFrom(base *PLI, fold []int, rhs int, sc *Scratch) bool {
	col := p.rel.Column(rhs)
	if len(fold) == 0 {
		return base.Refines(col)
	}
	keys, cards := p.foldKeys(fold, sc)
	return base.CheckRefines(col, keys, cards, sc)
}

// CheckFDs validates lhs → A for every A ∈ rhs in one batched fold
// (CheckRefinesMany) and returns the set of right-hand sides that hold.
// Columns of lhs itself are trivially determined and echoed back. The
// candidate column slots and verdict buffer come from the pooled Scratch,
// so TANE's per-level sweep allocates nothing per call.
func (p *Provider) CheckFDs(lhs bitset.Set, rhs bitset.Set) bitset.Set {
	valid := rhs.Intersect(lhs) // trivial FDs
	todo := rhs.Diff(lhs)
	if todo.IsEmpty() {
		return valid
	}
	sc := getScratch()
	defer putScratch(sc)
	n := todo.Len()
	p.fastChecks.Add(int64(n))
	data, ok := sc.rhsSlots(n)
	i := 0
	for c := todo.First(); c >= 0; c = todo.NextAfter(c) {
		data[i] = p.rel.Column(c)
		i++
	}
	base, fold := p.plan(lhs, sc)
	keys, cards := p.foldKeys(fold, sc)
	base.CheckRefinesMany(data, keys, cards, ok, sc)
	i = 0
	for c := todo.First(); c >= 0; c = todo.NextAfter(c) {
		if ok[i] {
			valid = valid.With(c)
		}
		i++
	}
	return valid
}

// ForEachCluster streams the stripped clusters of s's PLI to fn without
// materialising or caching the PLI when it is uncached: the groups are
// folded from the cheapest cached ancestor in the same order as the
// materialised PLI's clusters. fn returning false stops the enumeration;
// the cluster slice is only valid during the callback. It backs
// order-insensitive aggregations such as the g3 approximate-FD error.
func (p *Provider) ForEachCluster(s bitset.Set, fn func(cluster []int32) bool) {
	p.fastChecks.Add(1)
	sc := getScratch()
	defer putScratch(sc)
	base, fold := p.plan(s, sc)
	if len(fold) == 0 {
		for i, n := 0, base.NumClusters(); i < n; i++ {
			if !fn(base.Cluster(i)) {
				return
			}
		}
		return
	}
	keys, cards := p.foldKeys(fold, sc)
	base.ForEachFoldedGroup(keys, cards, sc, fn)
}
