// Package settrie stores families of column combinations and answers the
// subset and superset queries of the discovery algorithms: the look-ups that
// paper Sec. 5.4 serves from a prefix tree (Fig. 5), such as upward pruning
// (is a known minimal UCC or FD left-hand side inside x?) and downward
// pruning (does a known non-UCC or non-FD left-hand side contain x?).
//
// An Index keeps its members in slots and, per column, a bitmap over the
// slots of the members holding that column. The members containing x are
// the AND of the bitmaps of x's columns; the members inside x are those in
// none of the bitmaps of the other columns. A query combines these bitmaps
// word by word, so an existence query stops at the first non-zero word.
// Enumerations walk the slots in order and so return the members in the
// order they were inserted, unsorted. Queries only read, so an index that no
// longer changes may be queried from concurrent goroutines.
//
// On top of the plain index, MinimalFamily and MaximalFamily maintain
// antichains of minimal respectively maximal sets, the stores used for
// minimal UCCs / FD left-hand sides and for maximal non-UCCs / non-FDs.
package settrie

import (
	"math/bits"

	"holistic/internal/bitset"
)

// Index is a set of column combinations supporting subset and superset
// queries. Enumerations return the members in insertion order; callers that
// need a canonical order sort. The zero value is an empty index ready for
// use.
type Index struct {
	slots []bitset.Set // members and removed members, in insertion order
	live  []uint64     // bitmap over slots: the current members
	// bits holds, per column, the bitmap over slots of the sets holding
	// it. It is laid out word-major: word wi of column c's bitmap is
	// bits[wi*width+c], so a query finds the words of its columns side by
	// side.
	bits  []uint64
	width int        // columns per row of bits: the last one used, plus one
	used  bitset.Set // the columns of all slots, live or removed
	n     int        // the number of members
}

// Add inserts s as a member. It does not look for an equal member: the
// families add only sets that no member dominates, and callers of a plain
// index keep the sets they add distinct. The empty set is a valid member.
func (ix *Index) Add(s bitset.Set) {
	if 2*ix.n < len(ix.slots) {
		ix.compact()
	}
	if s.Last() >= ix.width {
		ix.widen(s.Last() + 1)
	}
	i := len(ix.slots)
	if i%64 == 0 {
		ix.live = append(ix.live, 0)
		ix.bits = append(ix.bits, make([]uint64, ix.width)...)
	}
	ix.slots = append(ix.slots, s)
	bit := uint64(1) << (i % 64)
	ix.live[i/64] |= bit
	row := ix.bits[i/64*ix.width:]
	for c := s.First(); c >= 0; c = s.NextAfter(c) {
		row[c] |= bit
	}
	ix.used = ix.used.Union(s)
	ix.n++
}

// widen lays the bitmaps out again with width columns per row.
func (ix *Index) widen(width int) {
	bits := make([]uint64, len(ix.live)*width)
	for wi := range ix.live {
		copy(bits[wi*width:], ix.bits[wi*ix.width:(wi+1)*ix.width])
	}
	ix.bits, ix.width = bits, width
}

// compact rebuilds the index from its members once removed slots outnumber
// them, so that queries stop scanning dead words. It adds the members back
// in slot order, which keeps the slots in insertion order.
func (ix *Index) compact() {
	members := ix.slots[:0]
	for wi, w := range ix.live {
		for ; w != 0; w &= w - 1 {
			members = append(members, ix.slots[wi*64+bits.TrailingZeros64(w)])
		}
	}
	*ix = Index{}
	for _, s := range members {
		ix.Add(s)
	}
}

func (ix *Index) all() []bitset.Set {
	return ix.collect(bitset.Set{}, bitset.Set{})
}

func (ix *Index) hasSubsetOf(x bitset.Set) bool {
	return ix.any(bitset.Set{}, ix.used.Diff(x))
}

func (ix *Index) hasSupersetOf(x bitset.Set) bool {
	return ix.any(x, bitset.Set{})
}

func (ix *Index) contains(x bitset.Set) bool {
	return ix.any(x, ix.used.Diff(x))
}

// selector lists the columns that select the members holding every column
// of in and no column of out. The lists live in the value, so queries
// allocate nothing.
type selector struct {
	cols [bitset.MaxColumns]uint8 // the columns of in, then those of out
	in   int                      // cols[:in] are the columns of in
	n    int                      // cols[in:n] are the columns of out
}

// set fills sel with the columns of in and out for an index whose slots
// hold the columns used. It reports false when a column of in lies in no
// slot, so that nothing can match. The columns of out that lie in no slot
// exclude nothing and are dropped.
func (sel *selector) set(used, in, out bitset.Set) bool {
	if !in.IsSubsetOf(used) {
		return false
	}
	for c := in.First(); c >= 0; c = in.NextAfter(c) {
		sel.cols[sel.n] = uint8(c)
		sel.n++
	}
	sel.in = sel.n
	out = out.Intersect(used)
	for c := out.First(); c >= 0; c = out.NextAfter(c) {
		sel.cols[sel.n] = uint8(c)
		sel.n++
	}
	return true
}

// word returns word wi of the bitmap of the members sel selects.
func (ix *Index) word(sel *selector, wi int) uint64 {
	row := ix.bits[wi*ix.width : (wi+1)*ix.width]
	w := ix.live[wi]
	for _, c := range sel.cols[:sel.in] {
		if w == 0 {
			return 0
		}
		w &= row[c]
	}
	for _, c := range sel.cols[sel.in:sel.n] {
		if w == 0 {
			return 0
		}
		w &^= row[c]
	}
	return w
}

// any reports whether a member holds every column of in and no column of
// out.
func (ix *Index) any(in, out bitset.Set) bool {
	var sel selector
	if !sel.set(ix.used, in, out) {
		return false
	}
	for wi := range ix.live {
		if ix.word(&sel, wi) != 0 {
			return true
		}
	}
	return false
}

// collect returns, in insertion order (the order of the slots), the members
// holding every column of in and no column of out.
func (ix *Index) collect(in, out bitset.Set) []bitset.Set {
	var sel selector
	if !sel.set(ix.used, in, out) {
		return nil
	}
	var res []bitset.Set
	for wi := range ix.live {
		for w := ix.word(&sel, wi); w != 0; w &= w - 1 {
			res = append(res, ix.slots[wi*64+bits.TrailingZeros64(w)])
		}
	}
	return res
}

// remove drops the members holding every column of in and no column of
// out.
func (ix *Index) remove(in, out bitset.Set) {
	var sel selector
	if !sel.set(ix.used, in, out) {
		return
	}
	for wi := range ix.live {
		w := ix.word(&sel, wi)
		ix.live[wi] &^= w
		ix.n -= bits.OnesCount64(w)
	}
}
