package walker

import (
	"context"
	"errors"
	"testing"
	"time"

	"holistic/internal/bitset"
)

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	pred := func(s bitset.Set) bool { calls++; return s.Len() >= 2 }
	_, err := RunContext(ctx, bitset.Full(8), pred, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls > 8 {
		t.Fatalf("pre-cancelled walk evaluated the predicate %d times", calls)
	}
}

// TestRunContextDeadline aborts a combinatorially hopeless walk (every
// 15-subset of 30 columns is a minimal true set) and requires a prompt
// return with the error.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	pred := func(s bitset.Set) bool { return s.Len() >= 15 }
	start := time.Now()
	res, err := RunContext(ctx, bitset.Full(30), pred, Options{Seed: 5})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled walk took %v, want prompt return", elapsed)
	}
	// The partial result is progress information, not an answer: it must not
	// claim completeness, but whatever it reports must still satisfy the
	// predicate contract.
	for _, s := range res.MinimalTrue {
		if !pred(s) {
			t.Fatalf("reported minimal true set %v fails the predicate", s)
		}
	}
}

// TestRunEqualsRunContextBackground requires a live context that never
// fires to leave the walk as it is without one.
func TestRunEqualsRunContextBackground(t *testing.T) {
	pred := func(s bitset.Set) bool { return bitset.New(0, 1).IsSubsetOf(s) || s.Has(2) }
	plain := run(bitset.Full(6), pred, Options{Seed: 9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxed, err := RunContext(ctx, bitset.Full(6), pred, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.MinimalTrue) != len(ctxed.MinimalTrue) || plain.Checks != ctxed.Checks {
		t.Fatal("walk under a live context differs from the walk without one")
	}
}
