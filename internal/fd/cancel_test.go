package fd

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"holistic/internal/dataset"
	"holistic/internal/pli"
)

// TestTaneContextDeadline cancels TANE mid-levelwise-traversal on a wide
// synthetic relation and requires a prompt return with the context error.
func TestTaneContextDeadline(t *testing.T) {
	rel := dataset.NCVoter(1000, 18)
	p := pli.NewProvider(rel, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := TaneContext(ctx, p, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled TANE took %v, want prompt return", elapsed)
	}
}

// TestFunContextDeadline is the same promptness check for FUN's levelwise
// traversal.
func TestFunContextDeadline(t *testing.T) {
	rel := dataset.NCVoter(1000, 18)
	p := pli.NewProvider(rel, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := FunContext(ctx, p, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled FUN took %v, want prompt return", elapsed)
	}
}

// TestTaneContextBackgroundMatchesPlain requires a live context that never
// fires to leave TANE's result as it is without one.
func TestTaneContextBackgroundMatchesPlain(t *testing.T) {
	rel := dataset.NCVoter(200, 8)
	plain := tane(pli.NewProvider(rel, nil))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxed, err := TaneContext(ctx, pli.NewProvider(rel, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.FDs, ctxed.FDs) {
		t.Fatal("TANE under a live context differs from TANE without one")
	}
}
