package core

import (
	"fmt"
	"reflect"
	"testing"

	"holistic/internal/fd"
	"holistic/internal/pli"
	"holistic/internal/relation"
	"holistic/internal/ucc"
)

// FuzzMudsMatchesOracles drives MUDS with fuzzer-chosen relation contents
// (see fuzzRelation) and checks full agreement with the brute-force FD and
// UCC oracles.
func FuzzMudsMatchesOracles(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 1, 1, 0, 2, 2, 2}, int64(1))
	f.Add([]byte{2, 0, 0, 1, 1, 0, 1}, int64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		rel := fuzzRelation(t, data)
		if rel == nil {
			return
		}
		res := Muds(rel, Options{Seed: seed})
		p := pli.NewProvider(rel, nil)
		if want := fd.BruteForce(p); !reflect.DeepEqual(res.FDs, want) {
			t.Fatalf("FDs mismatch:\n got %v\nwant %v\ndata %v", res.FDs, want, data)
		}
		if want := ucc.BruteForce(p); !reflect.DeepEqual(res.UCCs, want) {
			t.Fatalf("UCCs mismatch:\n got %v\nwant %v\ndata %v", res.UCCs, want, data)
		}
	})
}

// fuzzRelation decodes a relation from a byte string: the first byte picks
// the column count (2..5), the rest fill the cells of up to 24 rows from a
// 4-value domain. It returns nil when the bytes fill no row.
func fuzzRelation(t testing.TB, data []byte) *relation.Relation {
	if len(data) < 3 {
		return nil
	}
	cols := 2 + int(data[0])%4
	cells := data[1:]
	rows := len(cells) / cols
	if rows < 1 {
		return nil
	}
	if rows > 24 {
		rows = 24
	}
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	table := make([][]string, rows)
	for i := 0; i < rows; i++ {
		row := make([]string, cols)
		for c := 0; c < cols; c++ {
			row[c] = fmt.Sprint(cells[i*cols+c] % 4)
		}
		table[i] = row
	}
	rel, err := relation.New("fuzz", names, table)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}
