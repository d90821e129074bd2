// Package parallel provides the bounded worker pool shared by the
// parallelized hot paths of the profiler: per-column dictionary encoding and
// PLI construction, the per-candidate validations of the level-wise FD
// algorithms, and the per-right-hand-side sub-lattice walks of MUDS.
//
// The design rule for callers is "indexed slots, not shared slices": every
// task i writes its result into position i of a pre-sized result slice, and
// the caller applies the slots in index order after the pool drains. Worker
// scheduling then influences only wall time — discovered dependency sets are
// byte-identical for every worker count, which the equivalence tests assert.
//
// Fault tolerance: a panic inside a task never escapes on a worker goroutine
// (which would kill the whole process with no chance to recover). The pool
// captures the first panic together with its stack, stops handing out new
// tasks, waits for the running tasks to drain, and re-raises the panic on
// the calling goroutine as a *TaskPanic — so the engine-level recover
// converts it into a failed job instead of a dead daemon. The armed
// faults.WorkerSpawn injection point degrades the pool to sequential
// in-line execution, which is observationally identical apart from wall
// time.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"holistic/internal/faults"
)

// TaskPanic wraps a panic captured inside a pool task, preserving the
// panicking task's stack trace (re-panicking on the caller goroutine would
// otherwise lose it). If the panic value is an error, Unwrap exposes it so
// classification (errors.Is/As on injected faults) works through the
// wrapper.
type TaskPanic struct {
	// Task is the index of the panicking task.
	Task int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (p *TaskPanic) Error() string {
	return fmt.Sprintf("panic in parallel task %d: %v", p.Task, p.Value)
}

// Unwrap exposes the panic value when it is an error.
func (p *TaskPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// Workers normalizes a worker-count option: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs fn(0), fn(1), ..., fn(n-1) across at most workers goroutines and
// blocks until every started task returned. Tasks are claimed from an atomic
// counter, so the pool stays busy even when task costs are skewed.
//
// Cancellation: no new task starts once ctx is done, and For returns
// ctx.Err(); tasks already running are not interrupted (fn should poll ctx
// itself inside long loops). On a non-nil error some slots were never
// written — callers must discard the partial results.
//
// Panics: if a task panics, the pool stops claiming new tasks, drains the
// ones already running, and re-panics on the calling goroutine with a
// *TaskPanic carrying the original value and stack. Callers therefore see
// the same control flow as a panic in a plain sequential loop — and the
// engine's panic isolation can convert it into an error.
//
// With workers <= 1 (or n <= 1) the tasks run inline on the calling
// goroutine, in index order, with the same per-task cancellation check; the
// sequential and parallel paths are therefore observationally identical.
func For(ctx context.Context, workers, n int, fn func(i int)) error {
	return ForWorker(ctx, workers, n, func(_, i int) { fn(i) })
}

// ForWorker is For with the worker slot exposed: fn(worker, i) receives the
// index of the pool goroutine running task i, with worker in [0, workers).
// A slot is never run by two goroutines at once (each pool goroutine owns
// exactly one slot for the whole call; the sequential path uses slot 0), so
// callers may own one reusable scratch arena per slot — e.g. a pli.Scratch
// for map-free PLI intersections — and index it by the worker argument
// without any locking. Which tasks land on which slot depends on scheduling;
// only the slot's exclusivity is guaranteed, so per-slot state must not
// influence task results.
func ForWorker(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	// An injected worker-spawn fault degrades the pool to sequential
	// execution: slower, never wrong (panic mode still panics, and is then
	// handled by the caller's isolation layer).
	if workers > 1 && faults.Degraded(faults.WorkerSpawn) {
		workers = 1
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}

	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		aborted atomic.Bool
		once    sync.Once
		caught  *TaskPanic
	)
	runTask := func(worker, i int) {
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() {
					caught = &TaskPanic{Task: i, Value: r, Stack: debug.Stack()}
				})
				aborted.Store(true)
			}
		}()
		fn(worker, i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				if aborted.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runTask(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if caught != nil {
		panic(caught)
	}
	return ctx.Err()
}
