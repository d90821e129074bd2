package pli

import "holistic/internal/bitset"

// Walk answers the predicate checks of one lattice walk — "is X unique?"
// for DUCC, "does X → rhs hold?" for the per-RHS FD walks — with the same
// verdicts and fast-check counts as the planner's checks (Provider.IsUnique,
// and Provider.CheckFDs per right-hand side), but without asking the cache
// planner for the sets a walk checks most.
//
// Most checks of a walk come from its upward step: standing on a refuted
// node s, it probes the direct supersets s ∪ {c} until one is refuted too,
// and ascends to it. A Walk holds PLI(s) for the node the walk stands on
// and answers each such probe as one single-column fold over it
// (checkRefines1, fold1PLI), with no cache probe. It infers the node from
// the verdicts alone: the last refuted set is where an upward walk stands.
// A probe one column above it moves the held PLI there, by one Extend per
// column the node lies above the held one or, after a planner check, per
// column of that check's plan (see moveToLast for when it declines). A
// probe two columns above the held node — what the walk asks when its
// stores decided a step without a check — is one two-column fold. Every
// other check (the downward step, the hole-filling jumps, the first check
// of each upward walk) goes through the planner, as Provider.CheckFDs and
// Provider.IsUnique do.
//
// A refuted uniqueness fold has built the PLI of the probed set anyway: it
// is admitted to the cache as IsUnique admits it, and becomes the held PLI
// for the ascent that follows, for free. An FD fold builds no PLI; an
// ascent extends the held PLI into one of the Walk's two own PLIs,
// overwritten in place, so an FD walk allocates per PLI size it reaches,
// not per check.
//
// Ownership contract: a Walk serves one walk at a time and is not safe for
// concurrent use; it owns its Scratch and its two PLIs. Any number of Walks
// may share one Provider. The verdicts are exact, so a walk visits the same
// nodes whichever path answers its checks; only cache probes, promotions,
// admissions and intersections differ. The armed faults.PLIIntersect point
// fires on every fold and Extend of the held path, as on the planner's.
type Walk struct {
	p   *Provider
	sc  *Scratch
	rhs int // right-hand side of an FD walk; -1 for a uniqueness walk

	held    bitset.Set // the set whose PLI heldPLI is
	heldPLI *PLI       // nil until the walk first stands on a node

	// last is the last refuted set, the node an upward walk stands on next.
	// lastFold folded over lastBase builds its PLI: for a uniqueness walk
	// lastBase is that PLI, built by the refuting fold; for an FD walk they
	// are the base and fold of the refuting check. An own PLI kept as
	// lastBase survives until the move, which does the Walk's only Extends.
	last     bitset.Set
	hasLast  bool
	lastBase *PLI
	lastFold []int

	own [2]*PLI // the FD walk's PLIs, overwritten in place by Extend
}

// UniqueWalk returns a Walk answering "is X unique?" on p.
func (p *Provider) UniqueWalk() *Walk { return &Walk{p: p, sc: NewScratch(), rhs: -1} }

// FDWalk returns a Walk answering "does X → rhs hold?" on p.
func (p *Provider) FDWalk(rhs int) *Walk { return &Walk{p: p, sc: NewScratch(), rhs: rhs} }

// Check reports the walk's predicate for s: whether s is unique, or whether
// s → rhs holds. It counts one fast check wherever IsUnique, or CheckFDs
// for the one right-hand side, would.
func (w *Walk) Check(s bitset.Set) bool {
	if w.rhs < 0 && s.IsEmpty() {
		return w.p.rel.NumRows() <= 1
	}
	if w.rhs >= 0 && s.Has(w.rhs) {
		return true // trivial FD
	}
	w.p.fastChecks.Add(1)
	switch {
	case w.heldPLI != nil && above(s, w.held, 1):
	case w.hasLast && above(s, w.last, 1) && w.moveToLast():
	case w.heldPLI != nil && above(s, w.held, 2):
	default:
		base, fold := w.p.plan(s, w.sc)
		return w.verdict(s, base, fold)
	}
	return w.verdict(s, w.heldPLI, appendCols(w.sc.foldColSlots(2), s.Diff(w.held)))
}

// above reports whether s is a superset of node with d more columns.
func above(s, node bitset.Set, d int) bool {
	return node.IsSubsetOf(s) && s.Len() == node.Len()+d
}

// verdict folds the columns fold over base, the PLI of s minus fold, and
// keeps a refuted s as the node an upward walk stands on next, with the
// cheapest way to its PLI: the PLI itself when the fold built it
// (uniqueness), else base and fold.
func (w *Walk) verdict(s bitset.Set, base *PLI, fold []int) bool {
	var ok bool
	if w.rhs < 0 {
		ok, base = w.p.uniqueFrom(s, base, fold, w.sc)
		fold = fold[:0]
	} else {
		ok = w.p.refinesFrom(base, fold, w.rhs, w.sc)
	}
	if !ok {
		w.last, w.hasLast = s, true
		w.lastBase, w.lastFold = base, append(w.lastFold[:0], fold...)
	}
	return ok
}

// rowsPerProbe prices one cache probe of the planner (a set hash, a shard
// mutex and a map look-up) in rows that an Extend scans and scatters,
// counting that a held node serves about two checks. It was set by timing
// MUDS on ionosphere-351×18, ncvoter-2000×16 and uniprot-like tables of
// 2,000 and 10,000 rows at 10, 20 and 40: at 40 the first two keep their
// whole gain, and the uniprot-like tables take 5–9% more CPU time than
// with the planner alone (without the bound, 10,000 rows took about 40%
// more).
const rowsPerProbe = 40

// planProbes is about the number of cache probes the planner makes for an
// uncached set of k columns: the set, its k direct subsets, its k(k-1)/2
// distance-2 subsets and its ascending prefixes.
func planProbes(k int) int { return k*k/2 + 2*k }

// moveToLast makes the last refuted set the held node, one Extend per
// column of the fold kept for it. It declines, and forgets the node, when
// the Extends would start from a PLI whose rows cost more to scan than the
// probes of a planned check of the node's supersets: on tall tables with
// few distinct values the nodes keep thousands of rows, and the planner
// finds cached ancestors that DUCC left behind.
func (w *Walk) moveToLast() bool {
	base, fold := w.lastBase, w.lastFold
	if len(fold) > 0 && len(base.rows) > rowsPerProbe*planProbes(w.last.Len()+1) {
		w.hasLast = false
		return false
	}
	for _, c := range fold {
		base = w.extend(base, c)
	}
	w.held, w.heldPLI, w.hasLast = w.last, base, false
	return true
}

// extend returns the PLI of base's set plus c, written over whichever of
// the walk's own PLIs base is not.
func (w *Walk) extend(base *PLI, c int) *PLI {
	i := 0
	if w.own[0] == base {
		i = 1
	}
	w.own[i] = w.p.Extend(w.own[i], base, c, w.sc)
	return w.own[i]
}

// appendCols appends the columns of s to dst in ascending order.
func appendCols(dst []int, s bitset.Set) []int {
	for c := s.First(); c >= 0; c = s.NextAfter(c) {
		dst = append(dst, c)
	}
	return dst
}
