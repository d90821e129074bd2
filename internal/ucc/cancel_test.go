package ucc

import (
	"context"
	"errors"
	"testing"
	"time"

	"holistic/internal/dataset"
	"holistic/internal/pli"
)

// TestDuccContextDeadline cancels the DUCC walk on a wide synthetic relation
// (the 34-column ionosphere shape: more than 15 s of lattice to traverse
// uncancelled on a 2-CPU machine) and requires a prompt return with the
// context error.
func TestDuccContextDeadline(t *testing.T) {
	rel := dataset.Ionosphere(34, 351)
	p := pli.NewProvider(rel, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := DuccContext(ctx, p, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled DUCC took %v, want prompt return", elapsed)
	}
}

func TestDuccContextBackgroundMatchesPlain(t *testing.T) {
	rel := dataset.NCVoter(200, 8)
	plain := Ducc(pli.NewProvider(rel, nil), 4)
	ctxed, err := DuccContext(context.Background(), pli.NewProvider(rel, nil), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Minimal) != len(ctxed.Minimal) || plain.Checks != ctxed.Checks {
		t.Fatal("background-context DUCC differs from plain DUCC")
	}
}
