package pli

import (
	"reflect"
	"slices"
	"sort"
	"testing"
)

// fuzzRelation decodes a fuzz payload into a small dictionary-encoded
// relation: byte 0 picks the column count (1..4), byte 1 the cardinality
// (1..8), and the remaining bytes fill the columns row-major. Every payload
// decodes to something valid, so the fuzzer never wastes executions.
func fuzzRelation(data []byte) (cols [][]int32, card int) {
	if len(data) < 2 {
		data = append(data, 0, 0)
	}
	nCols := 1 + int(data[0])%4
	card = 1 + int(data[1])%8
	body := data[2:]
	nRows := len(body) / nCols
	if nRows > 256 {
		nRows = 256
	}
	cols = make([][]int32, nCols)
	for c := range cols {
		col := make([]int32, nRows)
		for r := range col {
			col[r] = int32(body[r*nCols+c]) % int32(card)
		}
		cols[c] = col
	}
	return cols, card
}

// canonRef converts a reference PLI into the canonical form shared with
// canon (sorted clusters of sorted rows).
func canonRef(p *ReferencePLI) [][]int32 {
	if len(p.clusters) == 0 {
		return nil
	}
	out := make([][]int32, 0, len(p.clusters))
	for _, c := range p.clusters {
		cc := append([]int32(nil), c...)
		sort.Slice(cc, func(i, j int) bool { return cc[i] < cc[j] })
		out = append(out, cc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// checkExtendInto extends base by col into a destination PLI of two shapes:
// one that held a larger PLI and one that held a unique result. Each
// overwrite must return the destination itself, equal to fresh (clusters
// and their order) and to the reference clusters want.
func checkExtendInto(t *testing.T, base *PLI, col []int32, card int, fresh *PLI, want [][]int32) {
	t.Helper()
	s := NewScratch()
	nRows := base.NumRows()
	ids := make([]int32, nRows)
	for i := range ids {
		ids[i] = int32(i)
	}
	unique := base.intersectKeyed(FromAllRows(nRows), ids, nRows, s)
	if !unique.IsUnique() {
		t.Fatalf("extending by a key column left %d clusters", unique.NumClusters())
	}
	for _, tc := range []struct {
		name string
		dst  *PLI
	}{{"larger", FromAllRows(nRows)}, {"unique", unique}} {
		got := base.intersectKeyed(tc.dst, col, card, s)
		if got != tc.dst {
			t.Fatalf("%s destination: result is not written in place", tc.name)
		}
		if !reflect.DeepEqual(canon(got), want) {
			t.Fatalf("%s destination diverges from the reference: %v, want %v", tc.name, canon(got), want)
		}
		if !slices.Equal(got.rows, fresh.rows) || !slices.Equal(got.offsets, fresh.offsets) || got.NumRows() != fresh.NumRows() {
			t.Fatalf("%s destination diverges from a fresh extend: rows %v offsets %v, want %v %v",
				tc.name, got.rows, got.offsets, fresh.rows, fresh.offsets)
		}
	}
}

// FuzzPLIEquivalence differentially fuzzes the flat PLI against the
// reference oracle: FromColumn, IntersectColumn, extend-into-destination
// (checkExtendInto), Refines, CheckRefinesMany without fold keys, ErrorSum
// and DistinctCount must agree on arbitrary relations. Any grouping or
// scratch-reset bug surfaces as a divergence from the pre-flat
// implementation.
func FuzzPLIEquivalence(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 1, 0, 2, 2, 0, 1, 1, 0})
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 1, 9, 9, 9, 9, 9, 9})       // cardinality 1: one big cluster
	f.Add([]byte{1, 7, 0, 1, 2, 3, 4, 5, 6, 0}) // near-unique column
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, card := fuzzRelation(data)

		flat := make([]*PLI, len(cols))
		ref := make([]*ReferencePLI, len(cols))
		for c := range cols {
			flat[c] = FromColumn(cols[c], card)
			ref[c] = RefFromColumn(cols[c], card)
			if !reflect.DeepEqual(canon(flat[c]), canonRef(ref[c])) {
				t.Fatalf("FromColumn(col %d) diverges: flat %v, ref %v", c, canon(flat[c]), canonRef(ref[c]))
			}
			if flat[c].ErrorSum() != ref[c].ErrorSum() || flat[c].DistinctCount() != ref[c].DistinctCount() {
				t.Fatalf("col %d: ErrorSum/DistinctCount diverge (%d/%d vs %d/%d)",
					c, flat[c].ErrorSum(), flat[c].DistinctCount(), ref[c].ErrorSum(), ref[c].DistinctCount())
			}
		}

		for a := range cols {
			for b := range cols {
				fc := flat[a].IntersectColumn(cols[b], card)
				rc := ref[a].IntersectColumn(cols[b])
				if !reflect.DeepEqual(canon(fc), canonRef(rc)) {
					t.Fatalf("IntersectColumn(%d,%d) diverges: flat %v, ref %v", a, b, canon(fc), canonRef(rc))
				}
				if flat[a].Refines(cols[b]) != ref[a].Refines(cols[b]) {
					t.Fatalf("Refines(%d,%d) diverges", a, b)
				}
				checkExtendInto(t, flat[a], cols[b], card, fc, canonRef(rc))
			}
			// The batched refinement sweep across all columns.
			got := make([]bool, len(cols))
			flat[a].CheckRefinesMany(cols, nil, nil, got, nil)
			if want := ref[a].RefinesEach(cols); !reflect.DeepEqual(got, want) {
				t.Fatalf("CheckRefinesMany(%d) diverges: flat %v, ref %v", a, got, want)
			}
		}
	})
}
