package faults

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestDisarmedFastPath(t *testing.T) {
	Reset()
	if err := Inject(ReaderIO); err != nil {
		t.Fatalf("disarmed Inject = %v, want nil", err)
	}
	if Degraded(CacheGet) {
		t.Fatal("disarmed Degraded = true, want false")
	}
	Check(PLIIntersect) // must not panic
}

func TestInjectModes(t *testing.T) {
	t.Cleanup(Reset)

	Enable(ReaderIO, ModeError, 0)
	err := Inject(ReaderIO)
	if err == nil || !errors.As(err, new(*Error)) {
		t.Fatalf("Inject = %v, want injected error", err)
	}
	if IsTransient(err) {
		t.Fatal("error mode must not be transient")
	}

	Enable(ReaderIO, ModeTransient, 0)
	if err := Inject(ReaderIO); !IsTransient(err) {
		t.Fatalf("Inject = %v, want transient", err)
	}

	Enable(ReaderIO, ModePanic, 0)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic mode did not panic")
			}
			if _, ok := r.(*Error); !ok {
				t.Fatalf("panic value = %T, want *Error", r)
			}
		}()
		_ = Inject(ReaderIO)
	}()
}

func TestTriggerBudget(t *testing.T) {
	t.Cleanup(Reset)
	Enable(CachePut, ModeError, 2)
	if !Degraded(CachePut) || !Degraded(CachePut) {
		t.Fatal("first two triggers must fire")
	}
	if Degraded(CachePut) {
		t.Fatal("third trigger fired past the budget")
	}
	if got := Fired(CachePut); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}

func TestConfigure(t *testing.T) {
	t.Cleanup(Reset)
	if err := Configure("reader.io:error, pli.intersect:panic:3"); err != nil {
		t.Fatal(err)
	}
	if err := Inject(ReaderIO); err == nil {
		t.Fatal("reader.io not armed")
	}
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("pli.intersect trigger %d did not panic", i)
				}
			}()
			Check(PLIIntersect)
		}()
	}
	Check(PLIIntersect) // budget of 3 exhausted: must not panic

	for _, bad := range []string{"reader.io", "x:boom", "x:error:-1", "x:error:q", "a:b:c:d"} {
		if err := Configure(bad); err == nil {
			t.Errorf("Configure(%q) accepted a malformed spec", bad)
		}
	}
}

func TestIsTransientUnwraps(t *testing.T) {
	t.Cleanup(Reset)
	Enable(ReaderIO, ModeTransient, 0)
	err := fmt.Errorf("outer: %w", Inject(ReaderIO))
	if !IsTransient(err) || !errors.As(err, new(*Error)) {
		t.Fatalf("wrapped injected transient not classified: %v", err)
	}
	if IsTransient(errors.New("plain")) {
		t.Fatal("plain error classified transient")
	}
}

// TestConcurrentTrigger hammers one budgeted point from many goroutines; the
// budget must be consumed exactly, with no double-fires (run under -race).
func TestConcurrentTrigger(t *testing.T) {
	t.Cleanup(Reset)
	Enable(WorkerSpawn, ModeError, 100)
	var wg sync.WaitGroup
	fired := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if Degraded(WorkerSpawn) {
					fired[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range fired {
		total += n
	}
	if total != 100 {
		t.Fatalf("fired %d times, want exactly 100", total)
	}
}
