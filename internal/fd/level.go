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
// PLI cache is probed or filled, and at most one path of k PLIs per worker
// is alive for a level of (k+1)-sets.
//
// The level is split into contiguous chunks across the worker pool, each
// chunk with its own path, and every set writes its own slot, so the sums
// are identical for every worker count. ctx is polled per set; on a non-nil
// error the sums are incomplete.
func levelErrorSums(ctx context.Context, p *pli.Provider, workers int, level []bitset.Set) ([]int, error) {
	sums := make([]int, len(level))
	workers = parallel.Workers(workers)
	chunks := 1
	if workers > 1 {
		chunks = min(len(level), chunksPerWorker*workers)
	}
	scratches := make([]*pli.Scratch, workers)
	err := parallel.ForWorker(ctx, workers, chunks, func(w, chunk int) {
		if scratches[w] == nil {
			scratches[w] = pli.NewScratch()
		}
		sc := scratches[w]
		var path prefixPath
		for i, hi := chunk*len(level)/chunks, (chunk+1)*len(level)/chunks; i < hi; i++ {
			if ctx.Err() != nil {
				return
			}
			x := level[i]
			last := x.Last()
			sums[i] = p.ErrorSumWith(path.moveTo(p, x.Without(last), sc), last, sc)
		}
	})
	if err == nil {
		// The pool only polls between chunks; a chunk that stopped on its
		// own poll left slots unwritten.
		err = ctx.Err()
	}
	return sums, err
}

// prefixPath holds the PLIs of the prefixes of one set: plis[j] is the PLI of
// the set's first j+1 columns, cols[j] its (j+1)-th column.
type prefixPath struct {
	cols []int
	plis []*pli.PLI
}

// moveTo returns the PLI of x. The prefixes x shares with the current path
// are kept; the rest of the path is dropped and rebuilt along x's columns,
// one counted intersection per column after the first.
func (pp *prefixPath) moveTo(p *pli.Provider, x bitset.Set, sc *pli.Scratch) *pli.PLI {
	if x.IsEmpty() {
		return p.Get(x)
	}
	j := 0
	c := x.First()
	for ; c >= 0 && j < len(pp.cols) && pp.cols[j] == c; c = x.NextAfter(c) {
		j++
	}
	clear(pp.plis[j:]) // let the dropped PLIs be collected
	pp.cols, pp.plis = pp.cols[:j], pp.plis[:j]
	for ; c >= 0; c = x.NextAfter(c) {
		next := p.SingleColumn(c)
		if n := len(pp.plis); n > 0 {
			next = p.Extend(pp.plis[n-1], c, sc)
		}
		pp.cols = append(pp.cols, c)
		pp.plis = append(pp.plis, next)
	}
	return pp.plis[len(pp.plis)-1]
}
