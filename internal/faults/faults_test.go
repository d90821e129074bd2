package faults

import (
	"errors"
	"fmt"
	"strings"
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

	for _, bad := range []string{"reader.io", "reader.io:boom", "reader.io:error:-1", "reader.io:error:q", "reader.io:b:c:d"} {
		if err := Configure(bad); err == nil {
			t.Errorf("Configure(%q) accepted a malformed spec", bad)
		}
	}
}

func TestInjectedErrorUnwraps(t *testing.T) {
	t.Cleanup(Reset)
	Enable(ReaderIO, ModeError, 0)
	err := fmt.Errorf("outer: %w", Inject(ReaderIO))
	var e *Error
	if !errors.As(err, &e) || e.Point != ReaderIO {
		t.Fatalf("wrapped injected error not classified: %v", err)
	}
}

// TestConfigureRejectsUnknown: a spec naming a point nothing fires, or a mode
// the package does not have, is refused whole, so a stale HOLISTIC_FAULTS
// spec fails loudly instead of arming nothing.
func TestConfigureRejectsUnknown(t *testing.T) {
	t.Cleanup(Reset)
	err := Configure("mem.watermark:error")
	if err == nil || !strings.Contains(err.Error(), string(WALFsync)) {
		t.Errorf("Configure(unknown point) = %v, want an error naming the known points", err)
	}
	for _, bad := range []string{"reader.io:transient", "reader.io:error,server.enqueue:error"} {
		if err := Configure(bad); err == nil {
			t.Errorf("Configure(%q) = nil, want an error", bad)
		}
	}
	if err := Inject(ReaderIO); err != nil {
		t.Fatalf("a rejected spec armed reader.io: %v", err)
	}
	for _, p := range []Point{ReaderIO, "mem.watermark"} {
		if got := Fired(p); got != 0 {
			t.Fatalf("Fired(%s) = %d, want 0", p, got)
		}
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
