package fd

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/parallel"
	"holistic/internal/pli"
)

// chunksPerWorker splits a lattice level into this many contiguous chunks per
// worker, so the pool balances uneven chunks while each chunk still walks a
// long stretch of shared prefixes.
const chunksPerWorker = 4

// levelErrorSums returns e(x) = |r| - |x|_r, the error sum of x's stripped
// partition, for every set of one lattice level: sums[i] belongs to
// level[i]. The sets must share one size and be in bitset.Sort order, the
// order bitset.AprioriGen emits.
//
// This is the partition product of TANE (Huhtala et al. 1999), which FUN
// shares: each set x costs one single-column fold of its last column over
// the PLI of its parent x \ {x.Last()}. Sort order is the preorder of the
// prefix tree, so consecutive sets share most of their parent's columns. A
// prefixPath keeps the PLIs of the current parent's prefixes and moves to
// the next parent with one column intersection per new prefix column; no
// PLI cache is probed or filled.
//
// The level is split into contiguous chunks across the worker pool, and
// every set writes its own slot, so the sums are identical for every worker
// count. Each worker slot owns a Scratch and one path whose PLIs, one per
// depth, are overwritten in place (Provider.Extend with a destination), so
// a level allocates per worker and path depth, not per set. Every chunk
// starts its path from the empty set, so the intersections performed do not
// depend on which worker runs which chunk. ctx is polled per set; on a
// non-nil error the sums are incomplete.
func levelErrorSums(ctx context.Context, p *pli.Provider, workers int, level []bitset.Set) ([]int, error) {
	sums := make([]int, len(level))
	workers = parallel.Workers(workers)
	chunks := 1
	if workers > 1 {
		chunks = min(len(level), chunksPerWorker*workers)
	}
	slots := make([]*levelWorker, workers)
	err := parallel.ForWorker(ctx, workers, chunks, func(w, chunk int) {
		if slots[w] == nil {
			slots[w] = &levelWorker{sc: pli.NewScratch()}
		}
		lw := slots[w]
		lw.path.reset()
		for i, hi := chunk*len(level)/chunks, (chunk+1)*len(level)/chunks; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			x := level[i]
			last := x.Last()
			sums[i] = p.ErrorSumWith(lw.path.moveTo(p, x.Without(last), lw.sc), last, lw.sc)
		}
	})
	if err == nil {
		// The pool only polls between chunks; a chunk that stopped on its
		// own poll left slots unwritten.
		err = ctx.Err()
	}
	return sums, err
}

// levelWorker is the state one worker slot of levelErrorSums keeps across
// the chunks it runs.
type levelWorker struct {
	sc   *pli.Scratch
	path prefixPath
}

// prefixPath holds the PLIs of the prefixes of one set: plis[j] is the PLI of
// the set's first j+1 columns, cols[j] its (j+1)-th column. plis[0] is the
// provider's single-column PLI; every deeper entry is the path's own PLI for
// that depth, which stays in the backing array beyond len(plis) when the
// path shrinks and is overwritten in place when it grows again.
type prefixPath struct {
	cols []int
	plis []*pli.PLI
}

// reset empties the path and keeps its PLIs for reuse.
func (pp *prefixPath) reset() {
	pp.cols, pp.plis = pp.cols[:0], pp.plis[:0]
}

// moveTo returns the PLI of x. The prefixes x shares with the current path
// are kept; the rest of the path is rebuilt along x's columns, one counted
// intersection per column after the first, each into the path's PLI of that
// depth.
func (pp *prefixPath) moveTo(p *pli.Provider, x bitset.Set, sc *pli.Scratch) *pli.PLI {
	if x.IsEmpty() {
		return p.Get(x)
	}
	j := 0
	c := x.First()
	for ; c >= 0 && j < len(pp.cols) && pp.cols[j] == c; c = x.NextAfter(c) {
		j++
	}
	pp.cols, pp.plis = pp.cols[:j], pp.plis[:j]
	for ; c >= 0; c = x.NextAfter(c) {
		d := len(pp.plis)
		pp.cols = append(pp.cols, c)
		if d == 0 {
			pp.plis = append(pp.plis, p.SingleColumn(c))
			continue
		}
		// Reslicing within capacity exposes the depth-d PLI left by an
		// earlier path (nil if the path never reached depth d). Depth 0
		// never takes part, so a provider-owned PLI is never overwritten.
		var dst *pli.PLI
		if d < cap(pp.plis) {
			dst = pp.plis[:d+1][d]
		}
		pp.plis = append(pp.plis, p.Extend(dst, pp.plis[d-1], c, sc))
	}
	return pp.plis[len(pp.plis)-1]
}
