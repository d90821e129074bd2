package pli

import (
	"context"
	"encoding/binary"

	"holistic/internal/bitset"
	"holistic/internal/parallel"
	"holistic/internal/relation"
)

// This file implements PLI delta maintenance under appended row batches. A
// relation.Append extends every column's code vector in place; the PLIs built
// over the old rows are then patched instead of rebuilt:
//
//   - single-column PLIs are rebuilt in one counting pass each (FromColumn is
//     already a counting sort over the extended column — there is no cheaper
//     incremental form that does not require per-code occupancy bookkeeping);
//   - cached multi-column PLIs take the merge path of AppendRows: the new
//     rows are grouped by their value combination, and each group pulls its
//     complete extended cluster membership out of the smallest single-column
//     cluster covering it, promoting old singletons and replacing grown
//     clusters while every untouched cluster is copied verbatim. The cost is
//     proportional to the clusters the batch actually touches, not to the
//     relation; a degenerate batch (touching huge low-cardinality clusters)
//     falls back to a from-scratch intersection chain, bounded by an explicit
//     scan budget.
//
// Provider.Refresh drives both paths and re-Puts the patched PLIs through the
// cache, so the Put-time-pinned byte ledger of the memory governor stays
// truthful.

// Appender carries the per-batch state shared by every AppendRows call: the
// extended relation's columns, the rebuilt single-column PLIs, and lazily
// built code→cluster indexes over them. It is not safe for concurrent use.
type Appender struct {
	oldRows int
	nRows   int
	cols    [][]int32
	cards   []int
	singles []*PLI
	codeIdx [][]int32 // codeIdx[c][code] = cluster index in singles[c], -1 if none
}

// NewAppender prepares delta maintenance for one appended batch. rel must
// already contain the appended rows (rows [oldRows, rel.NumRows()) are the
// batch); singles must be the single-column PLIs rebuilt over the extended
// columns.
func NewAppender(rel *relation.Relation, oldRows int, singles []*PLI) *Appender {
	n := rel.NumColumns()
	a := &Appender{
		oldRows: oldRows,
		nRows:   rel.NumRows(),
		cols:    make([][]int32, n),
		cards:   make([]int, n),
		singles: singles,
		codeIdx: make([][]int32, n),
	}
	for c := 0; c < n; c++ {
		a.cols[c] = rel.Column(c)
		a.cards[c] = rel.Cardinality(c)
	}
	return a
}

// codeClusters returns the code→cluster index of column c's rebuilt single
// PLI: the cluster of every code with two or more occurrences, -1 otherwise.
// The code of a cluster is recovered from its first member row.
func (a *Appender) codeClusters(c int) []int32 {
	if idx := a.codeIdx[c]; idx != nil {
		return idx
	}
	idx := make([]int32, a.cards[c])
	for i := range idx {
		idx[i] = -1
	}
	p, col := a.singles[c], a.cols[c]
	for ci, n := 0, p.NumClusters(); ci < n; ci++ {
		idx[col[p.Cluster(ci)[0]]] = int32(ci)
	}
	a.codeIdx[c] = idx
	return idx
}

// AppendRows returns the PLI of the column set cols over the extended
// relation, given p as that set's PLI over the first a.oldRows rows. cols
// must be the ascending column ids of p's combination.
//
// Merge path: the appended rows are grouped by their value combination on
// cols; for each group, the single-column cluster of the group's code in the
// smallest covering column necessarily contains every extended-relation row
// matching the combination (old cluster members, old singletons to promote,
// and the group itself), so one filtered scan of it yields the patched
// cluster. Old clusters whose combination gained no rows are copied
// verbatim; results therefore differ from a from-scratch build only in
// cluster order, which no consumer observes (uniqueness, refinement,
// ErrorSum and DistinctCount are all order-independent).
//
// When the total cluster scan cost would exceed a full rebuild (low-
// cardinality combos dragging in huge clusters), AppendRows abandons the
// merge and rebuilds by chaining column intersections over the extended
// columns instead.
func (p *PLI) AppendRows(a *Appender, cols []int, s *Scratch) *PLI {
	if len(cols) == 0 {
		return FromAllRows(a.nRows)
	}
	if len(cols) == 1 {
		return a.singles[cols[0]]
	}
	if s == nil {
		s = getScratch()
		defer putScratch(s)
	}
	newCount := a.nRows - a.oldRows
	if newCount == 0 {
		return p
	}

	// Group the appended rows by their combination on cols, preserving
	// first-occurrence order for determinism.
	k := len(cols)
	key := make([]byte, 4*k)
	comboOf := func(row int32) string {
		for i, c := range cols {
			binary.LittleEndian.PutUint32(key[4*i:], uint32(a.cols[c][row]))
		}
		return string(key)
	}
	groupIdx := make(map[string]int, newCount)
	var groupRows [][]int32
	for row := int32(a.oldRows); row < int32(a.nRows); row++ {
		ck := comboOf(row)
		gi, ok := groupIdx[ck]
		if !ok {
			gi = len(groupRows)
			groupIdx[ck] = gi
			groupRows = append(groupRows, nil)
		}
		groupRows[gi] = append(groupRows[gi], row)
	}

	// Plan each group: the smallest single-column cluster covering the combo
	// is the scan source. A missing cluster in ANY column means the combo
	// occurs at most once in the whole extended relation — a singleton.
	type plan struct {
		col     int   // column whose cluster is scanned, -1 = singleton group
		cluster int32 // cluster index in that column's single PLI
	}
	plans := make([]plan, len(groupRows))
	scanCost := 0
	for gi, rows := range groupRows {
		first := rows[0]
		best, bestLen := -1, 0
		singleton := false
		for _, c := range cols {
			ci := a.codeClusters(c)[a.cols[c][first]]
			if ci < 0 {
				singleton = true
				break
			}
			sp := a.singles[c]
			l := int(sp.offsets[ci+1] - sp.offsets[ci])
			if best < 0 || l < bestLen {
				best, bestLen = c, l
				plans[gi].cluster = ci
			}
		}
		if singleton {
			plans[gi].col = -1
			continue
		}
		plans[gi].col = best
		scanCost += bestLen
	}

	// Budget guard: the merge must beat the from-scratch intersection chain,
	// whose cost is roughly one pass over every column of the set.
	if scanCost > a.nRows*k {
		return a.rebuild(cols, s)
	}

	// Execute the scans: collect the patched/new clusters and remember which
	// combinations they cover, so the assembly below can skip the old
	// clusters they replace.
	var patchedRows []int32
	patchedOffs := []int32{0}
	for gi, rows := range groupRows {
		pl := plans[gi]
		if pl.col < 0 {
			continue
		}
		sp := a.singles[pl.col]
		cluster := sp.rows[sp.offsets[pl.cluster]:sp.offsets[pl.cluster+1]]
		first := rows[0]
		start := len(patchedRows)
		for _, row := range cluster {
			match := true
			for _, c := range cols {
				if c == pl.col {
					continue
				}
				if a.cols[c][row] != a.cols[c][first] {
					match = false
					break
				}
			}
			if match {
				patchedRows = append(patchedRows, row)
			}
		}
		if len(patchedRows)-start < 2 {
			patchedRows = patchedRows[:start] // still a singleton combination
			continue
		}
		patchedOffs = append(patchedOffs, int32(len(patchedRows)))
	}

	// Assembly: old clusters whose combination gained no appended rows are
	// copied verbatim; the rest were re-emitted (extended) above. An old
	// cluster is replaced iff its combination is one of the batch groups.
	total := len(patchedRows)
	nOld := p.NumClusters()
	replaced := 0
	for ci := 0; ci < nOld; ci++ {
		if _, hit := groupIdx[comboOf(p.rows[p.offsets[ci]])]; hit {
			replaced++
		} else {
			total += int(p.offsets[ci+1] - p.offsets[ci])
		}
	}
	out := &PLI{nRows: a.nRows}
	if total == 0 {
		return out
	}
	out.rows = make([]int32, 0, total)
	out.offsets = make([]int32, 1, nOld-replaced+len(patchedOffs))
	for ci := 0; ci < nOld; ci++ {
		clusterRows := p.rows[p.offsets[ci]:p.offsets[ci+1]]
		if _, hit := groupIdx[comboOf(clusterRows[0])]; hit {
			continue
		}
		out.rows = append(out.rows, clusterRows...)
		out.offsets = append(out.offsets, int32(len(out.rows)))
	}
	for gi := 0; gi+1 < len(patchedOffs); gi++ {
		out.rows = append(out.rows, patchedRows[patchedOffs[gi]:patchedOffs[gi+1]]...)
		out.offsets = append(out.offsets, int32(len(out.rows)))
	}
	return out
}

// rebuild is the merge path's fallback: a from-scratch intersection chain
// over the extended columns, starting from the rebuilt single-column PLI of
// the first column.
func (a *Appender) rebuild(cols []int, s *Scratch) *PLI {
	cur := a.singles[cols[0]]
	for _, c := range cols[1:] {
		cur = cur.IntersectColumnScratch(a.cols[c], a.cards[c], s)
	}
	return cur
}

// Refresh re-synchronises the Provider with its relation after a
// relation.Append extended it in place: the single-column PLIs and the
// empty-set PLI are rebuilt over the extended columns, every cached
// multi-column PLI is patched through the AppendRows merge path and re-Put
// (so the cache's put-time byte ledger tracks the new sizes). oldRows is the
// relation's row count before the append.
//
// Refresh is an exclusive operation: like relation.Append, it must not run
// concurrently with any other method of the Provider.
func (p *Provider) Refresh(oldRows int) {
	rel := p.rel
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
	p.empty = FromAllRows(rel.NumRows())

	a := NewAppender(rel, oldRows, p.single)
	type entry struct {
		set bitset.Set
		pli *PLI
	}
	var entries []entry
	p.cache.forEach(func(s bitset.Set, q *PLI) bool {
		entries = append(entries, entry{s, q})
		return true
	})
	s := NewScratch()
	s.Ensure(maxCard)
	for _, e := range entries {
		p.cachePut(e.set, e.pli.AppendRows(a, e.set.Columns(), s))
	}
}
