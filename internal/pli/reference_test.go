package pli

// This file keeps the pre-flat PLI implementation — one heap-allocated
// []int32 per cluster, map-based grouping — as a differential-testing oracle
// for the fuzzers and property tests. It lives in a _test file so nothing
// outside the tests can use it: the flat PLI is the one representation every
// consumer shares.

// ReferencePLI is the reference stripped partition: the straightforward
// cluster-of-slices layout with per-call map grouping, retained verbatim from
// the pre-flat implementation. Its results define correctness for the flat
// PLI (FuzzPLIEquivalence compares the two op by op).
type ReferencePLI struct {
	clusters [][]int32
	nRows    int
}

// RefFromColumn builds the reference PLI of a single dictionary-encoded
// column.
func RefFromColumn(col []int32, cardinality int) *ReferencePLI {
	buckets := make([][]int32, cardinality)
	for row, code := range col {
		buckets[code] = append(buckets[code], int32(row))
	}
	p := &ReferencePLI{nRows: len(col)}
	for _, b := range buckets {
		if len(b) >= 2 {
			p.clusters = append(p.clusters, b)
		}
	}
	return p
}

// NumRows returns the row count of the relation the PLI belongs to.
func (p *ReferencePLI) NumRows() int { return p.nRows }

// Clusters exposes the clusters (not a copy; callers must not modify).
func (p *ReferencePLI) Clusters() [][]int32 { return p.clusters }

// IsUnique reports whether the underlying column combination is a UCC.
func (p *ReferencePLI) IsUnique() bool { return len(p.clusters) == 0 }

// ErrorSum returns sum(|cluster| - 1).
func (p *ReferencePLI) ErrorSum() int {
	e := 0
	for _, c := range p.clusters {
		e += len(c) - 1
	}
	return e
}

// DistinctCount returns the number of distinct value combinations.
func (p *ReferencePLI) DistinctCount() int { return p.nRows - p.ErrorSum() }

// IntersectColumn returns the reference PLI of X ∪ {A}.
func (p *ReferencePLI) IntersectColumn(col []int32) *ReferencePLI {
	out := &ReferencePLI{nRows: p.nRows}
	groups := make(map[int32][]int32)
	for _, cluster := range p.clusters {
		for _, row := range cluster {
			code := col[row]
			groups[code] = append(groups[code], row)
		}
		for code, g := range groups {
			if len(g) >= 2 {
				out.clusters = append(out.clusters, append([]int32(nil), g...))
			}
			delete(groups, code)
		}
	}
	return out
}

// Refines reports whether the FD X → A holds.
func (p *ReferencePLI) Refines(col []int32) bool {
	for _, cluster := range p.clusters {
		first := col[cluster[0]]
		for _, row := range cluster[1:] {
			if col[row] != first {
				return false
			}
		}
	}
	return true
}

// RefinesEach checks the FDs X → A for several candidate columns in a single
// pass over the clusters (nil columns are skipped and report false). It is
// the oracle for PLI.CheckRefinesMany without fold keys.
func (p *ReferencePLI) RefinesEach(cols [][]int32) []bool {
	ok := make([]bool, len(cols))
	remaining := 0
	for i, c := range cols {
		if c != nil {
			ok[i] = true
			remaining++
		}
	}
	if remaining == 0 {
		return ok
	}
	for _, cluster := range p.clusters {
		for i, c := range cols {
			if c == nil || !ok[i] {
				continue
			}
			first := c[cluster[0]]
			for _, row := range cluster[1:] {
				if c[row] != first {
					ok[i] = false
					remaining--
					break
				}
			}
		}
		if remaining == 0 {
			break
		}
	}
	return ok
}
