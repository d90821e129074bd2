package walker

import (
	"context"
	"math"
	"math/bits"

	"holistic/internal/bitset"
	"holistic/internal/settrie"
)

// pollEvery is the number of search nodes between two context polls of the
// hitting-set enumeration. A poll takes a mutex, a node a few word
// operations per member of the partial set.
const pollEvery = 1024

// MinimalHittingSets enumerates the minimal subsets of base that intersect
// every edge (the minimal transversals of the hypergraph of edges restricted
// to base), in bitset.Sort order. An edge with no column inside base cannot
// be hit, so there is no hitting set and the result is nil; without edges
// the empty set is the unique minimal hitting set.
//
// The enumeration is MMCS (Murakami & Uno, "Efficient algorithms for
// dualizing large-scale hypergraphs", DAM 2014). Each search node holds a
// partial set S, the edges S leaves uncovered, and for every u ∈ S its
// critical edges: the edges S hits only in u. A node branches on the
// uncovered edge with the fewest candidate columns, and a column v joins S
// only while every u ∈ S keeps a critical edge, so every node is a minimal
// partial hitting set. The branched edge's columns leave the candidate set
// for the whole branching, and each returns to it once its own branch is
// done; the siblings after it may use it, the ones before may not. Together
// this emits every minimal hitting set exactly once, with no duplicate
// filter. Edge sets are bitmaps over edge indices, so the bookkeeping of a
// node is a few word operations per member of S.
//
// The enumeration polls ctx every pollEvery nodes. When ctx is done it
// returns nil and ctx.Err(): a partial enumeration is never returned.
func MinimalHittingSets(ctx context.Context, edges []bitset.Set, base bitset.Set) ([]bitset.Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Only ⊆-minimal edges constrain the hitting sets: hitting an edge hits
	// all its supersets. The filter also drops duplicate edges.
	var minimal settrie.MinimalFamily
	for _, e := range edges {
		e = e.Intersect(base)
		if e.IsEmpty() {
			return nil, nil
		}
		minimal.Add(e)
	}
	h := newMMCS(ctx, minimal.All())
	h.search(0)
	if h.err != nil {
		return nil, h.err
	}
	bitset.Sort(h.out)
	return h.out, nil
}

// mmcs is the state of one hitting-set enumeration.
type mmcs struct {
	ctx   context.Context
	err   error
	nodes int

	edges []bitset.Set
	words int // uint64 words of one bitmap over edge indices
	// inc[c*words:(c+1)*words] is the bitmap of the edges containing
	// column c.
	inc []uint64

	set  bitset.Set // S, the partial hitting set of the current node
	cand bitset.Set // CAND, the columns S may still be extended by
	// levels[k] is the state of the node at depth k (|S| = k): the
	// uncovered edges in its first words, then the critical edges of the
	// k members of S in insertion order.
	levels [][]uint64
	out    []bitset.Set
}

func newMMCS(ctx context.Context, edges []bitset.Set) *mmcs {
	var cols bitset.Set
	for _, e := range edges {
		cols = cols.Union(e)
	}
	words := (len(edges) + 63) / 64
	h := &mmcs{
		ctx:   ctx,
		edges: edges,
		words: words,
		inc:   make([]uint64, (cols.Last()+1)*words),
		cand:  cols,
	}
	for i, e := range edges {
		for c := e.First(); c >= 0; c = e.NextAfter(c) {
			h.inc[c*words+i/64] |= 1 << (i % 64)
		}
	}
	root := h.level(0)
	for i := range edges {
		root[i/64] |= 1 << (i % 64)
	}
	return h
}

// level returns the state buffer of depth k, allocating it on first use.
func (h *mmcs) level(k int) []uint64 {
	for len(h.levels) <= k {
		h.levels = append(h.levels, make([]uint64, (len(h.levels)+1)*h.words))
	}
	return h.levels[k]
}

// stopped counts a search node and reports whether the enumeration must
// stop, polling ctx every pollEvery nodes.
func (h *mmcs) stopped() bool {
	if h.err != nil {
		return true
	}
	h.nodes++
	if h.nodes%pollEvery == 0 {
		h.err = h.ctx.Err()
	}
	return h.err != nil
}

// search expands the node at depth k, whose state is levels[k].
func (h *mmcs) search(k int) {
	if h.stopped() {
		return
	}
	cur := h.levels[k]
	// Branch on the uncovered edge with the fewest candidate columns. None
	// is ever left without candidates: a branch withholds from the other
	// edges fewer columns than the branched edge has.
	best, fewest := -1, math.MaxInt
	for wi, w := range cur[:h.words] {
		for ; w != 0; w &= w - 1 {
			i := wi*64 + bits.TrailingZeros64(w)
			if n := h.edges[i].Intersect(h.cand).Len(); n < fewest {
				best, fewest = i, n
			}
		}
	}
	if best < 0 {
		h.out = append(h.out, h.set) // no uncovered edge: S is a minimal hitting set
		return
	}
	branch := h.edges[best].Intersect(h.cand)
	h.cand = h.cand.Diff(branch)
	next := h.level(k + 1)
	for v := branch.First(); v >= 0; v = branch.NextAfter(v) {
		if h.extend(k, v, cur, next) {
			h.set = h.set.With(v)
			h.search(k + 1)
			h.set = h.set.Without(v)
			if h.err != nil {
				return
			}
		}
		h.cand = h.cand.With(v)
	}
}

// extend writes into next the state of S ∪ {v} from cur, the state of S at
// depth k, and reports whether every member of S keeps a critical edge (so
// S ∪ {v} is still a minimal partial hitting set). v's own critical edges
// are the uncovered edges it hits, never empty since v lies on the branched
// uncovered edge.
func (h *mmcs) extend(k, v int, cur, next []uint64) bool {
	w := h.words
	inc := h.inc[v*w : (v+1)*w]
	for i, e := range inc {
		next[i] = cur[i] &^ e
		next[(k+1)*w+i] = cur[i] & e
	}
	for j := 1; j <= k; j++ {
		src, dst := cur[j*w:(j+1)*w], next[j*w:(j+1)*w]
		var left uint64
		for i, e := range inc {
			dst[i] = src[i] &^ e
			left |= dst[i]
		}
		if left == 0 {
			return false
		}
	}
	return true
}
