package core

import (
	"math/bits"

	"holistic/internal/bitset"
)

// uccIndex inverts the minimal UCCs by column for the connector look-up
// (paper Sec. 5.1) and pruning rule 1 (Sec. 4): per column, a bitmap over
// the UCC indices of the UCCs holding it. The UCCs containing a set x are
// the AND of the bitmaps of x's columns, so their union costs a few word
// operations per column of x and per surviving UCC, and no allocation. The
// minimal UCCs are fixed once the FD phases start, so the index is built
// once and is safe to share between concurrent walks.
type uccIndex struct {
	uccs  []bitset.Set
	union bitset.Set // the union of all UCCs, Z of paper Sec. 4
	words int        // uint64 words of one bitmap over UCC indices
	// cols[c*words:(c+1)*words] is the bitmap of the UCCs containing
	// column c, for the columns up to the last one of union.
	cols []uint64
}

func newUCCIndex(uccs []bitset.Set) uccIndex {
	ix := uccIndex{uccs: uccs, words: (len(uccs) + 63) / 64}
	for _, u := range uccs {
		ix.union = ix.union.Union(u)
	}
	ix.cols = make([]uint64, (ix.union.Last()+1)*ix.words)
	for i, u := range uccs {
		for c := u.First(); c >= 0; c = u.NextAfter(c) {
			ix.cols[c*ix.words+i/64] |= 1 << (i % 64)
		}
	}
	return ix
}

// unionOfSupersets returns the union of the UCCs that contain x; every UCC
// contains the empty set.
func (ix *uccIndex) unionOfSupersets(x bitset.Set) bitset.Set {
	if x.IsEmpty() {
		return ix.union
	}
	if !x.IsSubsetOf(ix.union) {
		return bitset.Set{} // a column of x lies in no UCC
	}
	var u bitset.Set
	for wi := 0; wi < ix.words; wi++ {
		w := ^uint64(0)
		for c := x.First(); c >= 0 && w != 0; c = x.NextAfter(c) {
			w &= ix.cols[c*ix.words+wi]
		}
		for ; w != 0; w &= w - 1 {
			u = u.Union(ix.uccs[wi*64+bits.TrailingZeros64(w)])
		}
	}
	return u
}
