package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"holistic/internal/faults"
)

// TestForTaskPanicRepanicsOnCaller is the pool's containment contract: a
// panicking task must not unwind a worker goroutine (which would kill the
// process); the pool drains and re-panics on the calling goroutine with a
// *TaskPanic preserving the task index and the worker's stack.
func TestForTaskPanicRepanicsOnCaller(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate to the caller")
		}
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("recovered %T, want *TaskPanic", r)
		}
		if tp.Task != 7 {
			t.Fatalf("TaskPanic.Task = %d, want 7", tp.Task)
		}
		if tp.Value != "task 7 exploded" {
			t.Fatalf("TaskPanic.Value = %v", tp.Value)
		}
		if !strings.Contains(string(tp.Stack), "panic_test") {
			t.Fatalf("TaskPanic.Stack lost the panicking frame:\n%s", tp.Stack)
		}
	}()
	_ = For(context.Background(), 4, 100, func(i int) {
		if i == 7 {
			panic("task 7 exploded")
		}
	})
	t.Fatal("For returned normally past a panicking task")
}

// TestForPanicStopsDispatch verifies a panic aborts the pool promptly: tasks
// not yet claimed when the panic hits are never started.
func TestForPanicStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	func() {
		defer func() { recover() }()
		_ = For(context.Background(), 2, 1<<20, func(i int) {
			if ran.Add(1) == 10 {
				panic("abort")
			}
		})
	}()
	if got := ran.Load(); got >= 1<<20 {
		t.Fatalf("panic did not stop dispatch (%d tasks ran)", got)
	}
}

// TestForPanicUnwrapsErrors checks error-valued panics stay classifiable
// through the TaskPanic wrapper (the engine uses this to recognise injected
// faults across the pool boundary).
func TestForPanicUnwrapsErrors(t *testing.T) {
	sentinel := errors.New("sentinel")
	defer func() {
		r := recover()
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("recovered %T, want *TaskPanic", r)
		}
		if !errors.Is(tp, sentinel) {
			t.Fatalf("TaskPanic does not unwrap to the panic error: %v", tp)
		}
	}()
	_ = For(context.Background(), 2, 10, func(i int) { panic(sentinel) })
}

// TestForSequentialPanicUnchanged pins the inline path's behaviour: with one
// worker a panic propagates raw, exactly like a plain loop.
func TestForSequentialPanicUnchanged(t *testing.T) {
	defer func() {
		if r := recover(); r != "raw" {
			t.Fatalf("recovered %v, want the raw panic value", r)
		}
	}()
	_ = For(context.Background(), 1, 3, func(i int) { panic("raw") })
}

// TestForWorkerSpawnDegradation arms the worker.spawn fault and checks the
// pool falls back to sequential in-line execution: every slot still runs
// exactly once, in index order.
func TestForWorkerSpawnDegradation(t *testing.T) {
	faults.Enable(faults.WorkerSpawn, faults.ModeError, 0)
	t.Cleanup(faults.Reset)

	var order []int
	err := For(context.Background(), 8, 50, func(i int) { order = append(order, i) })
	if err != nil {
		t.Fatalf("degraded For: %v", err)
	}
	if len(order) != 50 {
		t.Fatalf("ran %d tasks, want 50", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("degraded pool ran out of order at %d: %v", i, order)
		}
	}
	if faults.Fired(faults.WorkerSpawn) == 0 {
		t.Fatal("worker.spawn fault never fired")
	}
}
