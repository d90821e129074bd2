// Package pli implements position list indexes (PLIs, also called stripped
// partitions), the data structure underlying UCC and FD validation in DUCC,
// TANE, FUN and MUDS (paper Sec. 2.2/2.3).
//
// A PLI of a column combination X is the list of row-id clusters such that
// all rows of a cluster agree on X; clusters of size one are stripped. An
// empty PLI therefore means X is a unique column combination, and the FD
// X → A holds iff every cluster of X's PLI is value-constant in column A
// (partition refinement, Lemma 1).
//
// # Construction
//
// A single-column PLI is a counting sort of one dictionary-encoded column
// (FromColumn). Every multi-column PLI is built by folding one more
// dictionary column over the clusters of a parent PLI: X ∪ {A} groups each
// cluster of X by A's codes (IntersectColumn, Provider.Extend, and the
// materialising check folds of check.go). There is no PLI × PLI product: a
// fold reads the column's code vector directly, so no PLI needs a
// row-to-cluster index.
//
// # Memory layout
//
// A PLI stores its clusters in a flat layout: one backing row array holding
// every cluster member back to back, plus a cluster-offset index — cluster i
// spans rows[offsets[i]:offsets[i+1]]. Building a PLI therefore costs two
// allocations regardless of cluster count, and iterating clusters walks one
// contiguous array instead of chasing a pointer per cluster. Access goes
// through Cluster and ForEachCluster; the backing arrays are never handed
// out mutably.
//
// Folds group rows with reusable Scratch arenas (see scratch.go) instead of
// per-call maps: the steady-state fold performs zero map allocations.
package pli

import "unsafe"

// PLI is a stripped partition of a relation's rows. The zero value is not
// useful; construct PLIs with FromColumn, FromAllRows or IntersectColumn, or
// through a Provider. A PLI is immutable once built, so its methods are safe
// for concurrent use and its size (ApproxBytes) never changes. The one
// exception is a destination PLI that its owner overwrites with
// Provider.Extend; such a PLI is never shared or cached.
type PLI struct {
	rows    []int32 // cluster members, cluster by cluster (one allocation)
	offsets []int32 // cluster i = rows[offsets[i]:offsets[i+1]]; nil if no clusters
	nRows   int
}

// FromColumn builds the PLI of a single dictionary-encoded column.
// cardinality is the number of distinct codes (the dictionary size).
func FromColumn(col []int32, cardinality int) *PLI {
	s := getScratch()
	defer putScratch(s)
	return FromColumnScratch(col, cardinality, s)
}

// FromColumnScratch is FromColumn with a caller-owned Scratch arena (see the
// ownership contract in scratch.go). Clusters are emitted in ascending code
// order, rows within a cluster in row order.
func FromColumnScratch(col []int32, cardinality int, s *Scratch) *PLI {
	s.ensure(cardinality)
	counts := s.counts[:cardinality]
	for _, code := range col {
		counts[code]++
	}
	nClusters, nStored := 0, 0
	for _, c := range counts {
		if c >= 2 {
			nClusters++
			nStored += int(c)
		}
	}
	p := &PLI{nRows: len(col)}
	if nClusters > 0 {
		p.rows = make([]int32, nStored)
		p.offsets = make([]int32, nClusters+1)
		starts := s.starts[:cardinality]
		cursor := int32(0)
		ci := 1
		for code, c := range counts {
			if c >= 2 {
				starts[code] = cursor
				cursor += c
				p.offsets[ci] = cursor
				ci++
			} else {
				starts[code] = -1
			}
		}
		for row, code := range col {
			if st := starts[code]; st >= 0 {
				p.rows[st] = int32(row)
				starts[code]++
			}
		}
	}
	clear(counts) // restore the all-zero Scratch invariant
	return p
}

// FromAllRows builds the PLI of the empty column combination: a single
// cluster containing every row (every row agrees on zero columns).
func FromAllRows(nRows int) *PLI {
	p := &PLI{nRows: nRows}
	if nRows >= 2 {
		p.rows = make([]int32, nRows)
		for i := range p.rows {
			p.rows[i] = int32(i)
		}
		p.offsets = []int32{0, int32(nRows)}
	}
	return p
}

// NumRows returns the row count of the relation the PLI belongs to.
func (p *PLI) NumRows() int { return p.nRows }

// NumClusters returns the number of (stripped) clusters.
func (p *PLI) NumClusters() int {
	if len(p.offsets) == 0 {
		return 0
	}
	return len(p.offsets) - 1
}

// Cluster returns cluster i as a read-only view into the backing row array;
// callers must not modify it.
func (p *PLI) Cluster(i int) []int32 {
	return p.rows[p.offsets[i]:p.offsets[i+1]:p.offsets[i+1]]
}

// ForEachCluster calls fn once per cluster, in cluster order. The slice is a
// view into the backing row array and must not be modified or retained.
func (p *PLI) ForEachCluster(fn func(cluster []int32)) {
	for i, n := 0, p.NumClusters(); i < n; i++ {
		fn(p.Cluster(i))
	}
}

// IsUnique reports whether the underlying column combination is a UCC:
// a stripped partition with no clusters has only unique values.
func (p *PLI) IsUnique() bool { return len(p.offsets) == 0 }

// ErrorSum returns sum(|cluster| - 1), the number of "redundant" rows. Two
// PLIs over the same rows have equal distinct counts iff their error sums are
// equal, which is how partition refinement (Lemma 1) is tested cheaply. With
// the flat layout this is O(1): stored rows minus cluster count.
func (p *PLI) ErrorSum() int { return len(p.rows) - p.NumClusters() }

// DistinctCount returns the number of distinct value combinations, i.e. the
// cardinality |X|_r used by FUN's free-set classification.
func (p *PLI) DistinctCount() int { return p.nRows - p.ErrorSum() }

// IntersectColumn returns the PLI of X ∪ {A} given the PLI of X and the
// dictionary-encoded column A with the given dictionary size, as one fold
// of A's codes over p's clusters; A's PLI is never needed. A cluster-free
// (unique) receiver short-circuits to the empty PLI.
func (p *PLI) IntersectColumn(col []int32, cardinality int) *PLI {
	s := getScratch()
	defer putScratch(s)
	return p.IntersectColumnScratch(col, cardinality, s)
}

// IntersectColumnScratch is IntersectColumn with a caller-owned Scratch arena
// (see the ownership contract in scratch.go).
func (p *PLI) IntersectColumnScratch(col []int32, cardinality int, s *Scratch) *PLI {
	return p.intersectKeyed(nil, col, cardinality, s)
}

// intersectKeyed groups the rows of p's clusters by keys[row], a column's
// dictionary codes, dropping groups of size one, and emits the surviving
// groups as a flat PLI. keyRange bounds the key values (the dictionary
// size); s provides the map-free grouping arenas. Within a cluster, groups
// are emitted in order of first occurrence, which is deterministic. A
// cluster-free (unique) receiver short-circuits to the empty PLI.
//
// dst == nil allocates a fresh result whose arrays are shrunk to fit, the
// form a cached or retained PLI needs. A non-nil dst is overwritten in place
// and returned: the capacity of its row and offset arrays is reused and the
// shrink copy is skipped. dst must be owned by the caller and must not be p.
func (p *PLI) intersectKeyed(dst *PLI, keys []int32, keyRange int, s *Scratch) *PLI {
	reuse := dst != nil
	var buf, offsets []int32
	if reuse {
		buf, offsets = dst.rows[:0], dst.offsets[:0]
	} else {
		dst = new(PLI)
	}
	*dst = PLI{nRows: p.nRows, rows: buf, offsets: offsets}
	if p.IsUnique() {
		return dst
	}
	s.ensure(keyRange)
	// The output cannot hold more rows than the scanned clusters, nor more
	// clusters than half of that: size the arrays to these bounds once.
	if cap(buf) < len(p.rows) {
		buf = make([]int32, len(p.rows))
	}
	buf = buf[:len(p.rows)]
	if cap(offsets) < len(p.rows)/2+2 {
		offsets = make([]int32, 0, len(p.rows)/2+2)
	}
	offsets = append(offsets, 0)
	cursor := int32(0)
	counts, starts := s.counts, s.starts
	touched := s.touched[:0]
	for ci, n := 0, p.NumClusters(); ci < n; ci++ {
		cluster := p.rows[p.offsets[ci]:p.offsets[ci+1]]
		touched = touched[:0]
		for _, row := range cluster {
			k := keys[row]
			if counts[k] == 0 {
				touched = append(touched, k)
			}
			counts[k]++
		}
		for _, k := range touched {
			if counts[k] >= 2 {
				starts[k] = cursor
				cursor += counts[k]
				offsets = append(offsets, cursor)
			} else {
				starts[k] = -1 // stripped from the result
			}
		}
		for _, row := range cluster {
			k := keys[row]
			if starts[k] < 0 {
				continue
			}
			buf[starts[k]] = row
			starts[k]++
		}
		for _, k := range touched {
			counts[k] = 0 // restore the all-zero invariant
		}
	}
	s.touched = touched[:0] // keep the grown capacity for the next call
	switch {
	case cursor == 0:
		if reuse {
			// Unique result: keep the capacity for the next overwrite.
			dst.rows, dst.offsets = buf[:0], offsets[:0]
		}
		return dst
	case !reuse && int(cursor) <= len(buf)/2:
		// The bound over-shot by 2x or more: copy down so the retained (and
		// possibly cached) PLI does not pin the oversized buffer.
		buf = append([]int32(nil), buf[:cursor]...)
	}
	dst.rows = buf[:cursor]
	dst.offsets = offsets
	return dst
}

// Refines reports whether the FD X → A holds given the PLI of X and the
// dictionary-encoded column A: every cluster of X must be constant in A
// (Lemma 1: |X| = |X ∪ {A}|). It exits on the first violating cluster.
func (p *PLI) Refines(col []int32) bool {
	rows, offs := p.rows, p.offsets
	for ci := 0; ci+1 < len(offs); ci++ {
		first := col[rows[offs[ci]]]
		for _, row := range rows[offs[ci]+1 : offs[ci+1]] {
			if col[row] != first {
				return false
			}
		}
	}
	return true
}

// pliStructBytes is the size of the PLI struct itself (two slice headers and
// the row count), derived from the type so it follows every field change.
const pliStructBytes = int64(unsafe.Sizeof(PLI{}))

// ApproxBytes is the single byte-accounting method of a PLI, used by both
// the cache stats surface and the memory governor: the struct itself plus
// four bytes per stored row id and offset. For the flat layout this is exact
// up to the allocator's size-class rounding of the struct. A PLI is
// immutable, so the value a cache adds at put is the value it subtracts at
// eviction.
func (p *PLI) ApproxBytes() int64 {
	return pliStructBytes + 4*int64(len(p.rows)+len(p.offsets))
}
