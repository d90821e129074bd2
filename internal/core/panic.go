package core

import (
	"fmt"
)

// PanicError is the engine's conversion of a recovered panic into an
// ordinary error: a strategy (or anything it calls — a worker-pool task, a
// PLI intersection, the input loader) panicked, the engine recovered it, and
// the run surfaces as failed instead of taking the process down. The
// captured stack rides along so the failure is diagnosable from a job's
// event log without a core dump.
type PanicError struct {
	// Strategy is the registry name of the run that panicked; for an
	// incremental batch, the strategy of its session.
	Strategy string
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured at recovery. When the panic crossed
	// a parallel worker boundary the worker's own stack is preserved (see
	// parallel.TaskPanic).
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Strategy != "" {
		return fmt.Sprintf("strategy %q panicked: %v", e.Strategy, e.Value)
	}
	return fmt.Sprintf("profiling panicked: %v", e.Value)
}

// Unwrap exposes the panic value when it is an error, so classification
// (errors.Is/As, injected faults) keeps working through the recovery
// boundary.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}
