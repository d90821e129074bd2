package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"holistic/internal/dataset"
	"holistic/internal/relation"
)

// TestWorkerCountEquivalence is the engine's determinism contract: every
// strategy discovers byte-identical IND/UCC/FD sets — and performs the same
// number of validity checks — no matter how many workers the parallel phases
// fan out over. Run under -race this also exercises the sharded cache and
// the indexed-slot result plumbing for data races.
func TestWorkerCountEquivalence(t *testing.T) {
	rels := []*relation.Relation{
		dataset.NCVoter(500, 10),
		dataset.Ionosphere(8, 351),
		dataset.Uniprot(2000),
	}
	for _, rel := range rels {
		src := RelationSource{Rel: rel}
		for _, strategy := range Strategies() {
			sequential, err := RunContext(context.Background(), strategy, src, Options{Seed: 11, Workers: 1}, nil)
			if err != nil {
				t.Fatalf("%s/%s workers=1: %v", rel.Name(), strategy, err)
			}
			for _, workers := range []int{2, 8} {
				parallel, err := RunContext(context.Background(), strategy, src, Options{Seed: 11, Workers: workers}, nil)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", rel.Name(), strategy, workers, err)
				}
				if !reflect.DeepEqual(parallel.FDs, sequential.FDs) {
					t.Errorf("%s/%s workers=%d: FDs differ from workers=1 (%d vs %d)",
						rel.Name(), strategy, workers, len(parallel.FDs), len(sequential.FDs))
				}
				if !reflect.DeepEqual(parallel.UCCs, sequential.UCCs) {
					t.Errorf("%s/%s workers=%d: UCCs differ from workers=1 (%d vs %d)",
						rel.Name(), strategy, workers, len(parallel.UCCs), len(sequential.UCCs))
				}
				if !reflect.DeepEqual(parallel.INDs, sequential.INDs) {
					t.Errorf("%s/%s workers=%d: INDs differ from workers=1 (%d vs %d)",
						rel.Name(), strategy, workers, len(parallel.INDs), len(sequential.INDs))
				}
				if parallel.Checks != sequential.Checks {
					t.Errorf("%s/%s workers=%d: %d checks, want %d (scheduling leaked into the check plan)",
						rel.Name(), strategy, workers, parallel.Checks, sequential.Checks)
				}
			}
		}
	}
}

// TestParallelRelationEncodingEquivalence checks the input layer's half of
// the contract: parallel per-column dictionary encoding and deduplication
// produce a relation identical to the sequential build.
func TestParallelRelationEncodingEquivalence(t *testing.T) {
	base := dataset.NCVoter(300, 8)
	names := base.ColumnNames()
	rows := make([][]string, base.NumRows())
	for r := range rows {
		row := make([]string, base.NumColumns())
		for c := range row {
			row[c] = base.Value(r, c)
		}
		rows[r] = row
	}
	rows = append(rows, rows[0], rows[1]) // force the dedup path

	seq, err := relation.NewWithOptions("eq", names, rows, relation.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := relation.NewWithOptions("eq", names, rows, relation.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumRows() != par.NumRows() || seq.DuplicatesRemoved() != par.DuplicatesRemoved() {
		t.Fatalf("row counts differ: sequential %d (-%d), parallel %d (-%d)",
			seq.NumRows(), seq.DuplicatesRemoved(), par.NumRows(), par.DuplicatesRemoved())
	}
	for c := 0; c < seq.NumColumns(); c++ {
		for r := 0; r < seq.NumRows(); r++ {
			if seq.Value(r, c) != par.Value(r, c) {
				t.Fatalf("value (%d,%d) differs: %q vs %q", r, c, seq.Value(r, c), par.Value(r, c))
			}
		}
		if !reflect.DeepEqual(seq.SortedDistinctValues(c), par.SortedDistinctValues(c)) {
			t.Fatalf("sorted distinct values of column %d differ", c)
		}
	}
}

// TestParallelMudsCancellation proves the worker pools do not outlive the
// context: a deadline mid-run must surface promptly even when the per-RHS
// walks and PLI builds are fanned out over many workers. An uncancelled run
// on this input takes about 2 s on a 2-CPU machine, DUCC about 0.1 s of it,
// so the deadline lands in the fanned-out completion sweep.
func TestParallelMudsCancellation(t *testing.T) {
	rel := dataset.Ionosphere(21, 351)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := MudsContext(ctx, rel, Options{Seed: 1, Workers: 8}, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 4*time.Second {
		t.Fatalf("cancelled parallel run took %v, want prompt return", elapsed)
	}
	if res == nil {
		t.Fatal("cancelled run must return the partial result")
	}
}
