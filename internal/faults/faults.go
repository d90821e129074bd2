// Package faults is the fault-injection substrate of the profiler: a set of
// named injection points threaded through the hot paths (CSV reading, PLI
// intersection, cache probes, worker-pool spawning, server admission) that
// tests and operators can arm to prove the system degrades instead of dying.
//
// Injection points are disarmed by default and cost one atomic load on the
// fast path, so production binaries pay nothing for carrying them. They are
// armed programmatically (Enable, from tests) or via the HOLISTIC_FAULTS
// environment variable (for chaos runs against a live daemon):
//
//	HOLISTIC_FAULTS="reader.io:error,pli.intersect:panic:1"
//
// Each comma-separated element is point:mode[:count]. Modes:
//
//   - error: the point reports a permanent *Error
//   - transient: the point reports a *Error that callers may retry
//     (Transient() returns true; the server's bounded retry keys off it)
//   - panic: the point panics with a *Error; the engine's panic isolation
//     converts it into a failed job with a captured stack
//
// count bounds how many times the fault fires (0 or absent = every time).
//
// How a triggered fault surfaces depends on the call site:
//
//   - error-capable sites (Inject) return the *Error to their caller
//   - sites with no error channel (Check) always surface as a panic,
//     regardless of mode, and rely on the engine's recover
//   - degradable sites (Degraded) report "this dependency is unavailable"
//     and the caller continues without it (cache probes fall back to
//     recomputation, the worker pool falls back to sequential execution)
package faults

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Point names one injection site. The constants below are the sites wired
// into the codebase; Enable accepts arbitrary names so tests can add their
// own.
type Point string

// The named injection points.
const (
	// ReaderIO fires inside relation.ReadCSV, before the input is parsed.
	ReaderIO Point = "reader.io"
	// PLIIntersect fires inside pli.Provider before an intersection — both
	// the materializing kind (Get, fast-path promotions) and the
	// non-materializing validation folds of the check kernels. The provider
	// has no error channel there, so every mode surfaces as a panic.
	PLIIntersect Point = "pli.intersect"
	// CacheGet fires on multi-column PLI cache probes. error/transient modes
	// degrade the probe to a miss (the PLI is recomputed); panic panics.
	CacheGet Point = "cache.get"
	// CachePut fires on multi-column PLI cache stores. error/transient modes
	// drop the store (later probes recompute); panic panics.
	CachePut Point = "cache.put"
	// WorkerSpawn fires when parallel.For is about to fan out. error/transient
	// modes degrade the pool to sequential in-line execution; panic panics.
	WorkerSpawn Point = "worker.spawn"
	// ServerEnqueue fires in the profiling server's submit handler before a
	// job is enqueued; the server maps it to a structured 503.
	ServerEnqueue Point = "server.enqueue"
	// WALAppend fires in durable.WAL.Append before the record frame is
	// written, modeling a full disk or failed write. The record is not
	// written at all (no partial frame), so replay sees a clean log.
	WALAppend Point = "wal.append"
	// WALFsync fires in durable.WAL.Append between the frame write and the
	// fsync, modeling a sync failure: the bytes may or may not be durable,
	// so the caller must treat the append as failed even though replay may
	// later surface the record.
	WALFsync Point = "wal.fsync"
	// CheckpointRename fires in durable.WriteCheckpoint between the synced
	// temp file and the atomic rename: the previous checkpoint must survive
	// untouched and the temp file must be cleaned up.
	CheckpointRename Point = "checkpoint.rename"
	// AdmissionEstimate fires in the server's deadline-aware admission
	// estimator. Armed (error/transient), the estimator reports an unbounded
	// predicted service time, so every deadline-carrying submission is
	// rejected at admission with 429 — the deterministic way to drive the
	// predicted-deadline rejection path in tests.
	AdmissionEstimate Point = "admission.estimate"
	// BreakerTrip fires when the server's per-(dataset, algorithm) circuit
	// breaker records a failure. Armed (error/transient), the breaker opens on
	// that first failure regardless of its configured threshold.
	BreakerTrip Point = "breaker.trip"
	// MemWatermark fires in the server's memory governor. Armed, it overrides
	// the sampled heap level: transient mode simulates heap above the soft
	// watermark (new jobs run degraded), error mode simulates heap above the
	// hard watermark (large submissions are refused with 503). Panic mode is
	// not meaningful here and is treated like error.
	MemWatermark Point = "mem.watermark"
)

// Mode selects what an armed point does when it fires.
type Mode string

// The injection modes.
const (
	ModeError     Mode = "error"
	ModeTransient Mode = "transient"
	ModePanic     Mode = "panic"
)

// Error is the failure injected at an armed point. It unwraps cleanly through
// fmt.Errorf("...: %w", err) chains and through the engine's PanicError, so
// callers anywhere up the stack can classify it (IsInjected, IsTransient).
type Error struct {
	Point Point
	Mode  Mode
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("injected fault at %s (%s)", e.Point, e.Mode)
}

// Transient reports whether the fault models a retryable condition.
func (e *Error) Transient() bool { return e.Mode == ModeTransient }

// plan is the armed state of one point.
type plan struct {
	mode Mode
	// remaining is the trigger budget; negative means unlimited.
	remaining atomic.Int64
	// fired counts how many times the point actually triggered.
	fired atomic.Int64
}

var (
	// armed is the fast-path gate: zero means every Inject/Check/Degraded is
	// a single atomic load and an immediate return.
	armed atomic.Int32

	mu    sync.RWMutex
	plans = map[Point]*plan{}
)

func init() {
	if spec := os.Getenv("HOLISTIC_FAULTS"); spec != "" {
		if err := Configure(spec); err != nil {
			// A malformed spec must not take the process down — that would
			// defeat the point of a robustness harness. Report and continue
			// unarmed.
			fmt.Fprintf(os.Stderr, "faults: ignoring HOLISTIC_FAULTS: %v\n", err)
		}
	}
}

// Enable arms point with the given mode. count bounds how many times the
// fault fires; count <= 0 means every time. Re-enabling a point replaces its
// previous plan.
func Enable(point Point, mode Mode, count int) {
	p := &plan{mode: mode}
	if count <= 0 {
		p.remaining.Store(-1)
	} else {
		p.remaining.Store(int64(count))
	}
	mu.Lock()
	if _, ok := plans[point]; !ok {
		armed.Add(1)
	}
	plans[point] = p
	mu.Unlock()
}

// Reset disarms every point. Tests call it in cleanup.
func Reset() {
	mu.Lock()
	plans = map[Point]*plan{}
	armed.Store(0)
	mu.Unlock()
}

// Configure parses a spec of comma-separated point:mode[:count] elements and
// arms the listed points. It validates the whole spec before arming anything.
func Configure(spec string) error {
	type entry struct {
		point Point
		mode  Mode
		count int
	}
	var entries []entry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return fmt.Errorf("bad fault %q (want point:mode[:count])", part)
		}
		mode := Mode(fields[1])
		switch mode {
		case ModeError, ModeTransient, ModePanic:
		default:
			return fmt.Errorf("bad fault mode %q in %q", fields[1], part)
		}
		count := 0
		if len(fields) == 3 {
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return fmt.Errorf("bad fault count %q in %q", fields[2], part)
			}
			count = n
		}
		entries = append(entries, entry{point: Point(fields[0]), mode: mode, count: count})
	}
	for _, e := range entries {
		Enable(e.point, e.mode, e.count)
	}
	return nil
}

// trigger consumes one unit of point's budget and returns the fault to
// surface, or nil when the point is unarmed or exhausted.
func trigger(point Point) *Error {
	if armed.Load() == 0 {
		return nil
	}
	mu.RLock()
	p := plans[point]
	mu.RUnlock()
	if p == nil {
		return nil
	}
	for {
		left := p.remaining.Load()
		if left == 0 {
			return nil // budget exhausted; the point stays registered but inert
		}
		if left < 0 {
			break // unlimited
		}
		if p.remaining.CompareAndSwap(left, left-1) {
			break
		}
	}
	p.fired.Add(1)
	return &Error{Point: point, Mode: p.mode}
}

// Inject fires point at an error-capable site: it returns nil when the point
// is unarmed, the injected *Error in error/transient mode, and panics with
// the *Error in panic mode.
func Inject(point Point) error {
	e := trigger(point)
	if e == nil {
		return nil
	}
	if e.Mode == ModePanic {
		panic(e)
	}
	return e
}

// Check fires point at a site with no error channel: any armed mode surfaces
// as a panic with the injected *Error, to be converted into a structured
// failure by the engine's panic isolation.
func Check(point Point) {
	if e := trigger(point); e != nil {
		panic(e)
	}
}

// Sample fires point at a site that maps the injected mode onto its own
// behavior ladder (the server's memory governor turns transient into "above
// the soft watermark" and error into "above the hard one"): it consumes one
// unit of budget and reports the armed mode without ever panicking. The
// boolean is false when the point is unarmed or exhausted.
func Sample(point Point) (Mode, bool) {
	e := trigger(point)
	if e == nil {
		return "", false
	}
	return e.Mode, true
}

// Degraded fires point at a degradable site: it reports true (dependency
// unavailable, caller should fall back) in error/transient mode, false when
// unarmed, and panics in panic mode.
func Degraded(point Point) bool {
	e := trigger(point)
	if e == nil {
		return false
	}
	if e.Mode == ModePanic {
		panic(e)
	}
	return true
}

// Fired returns how many times point has triggered since it was last armed.
func Fired(point Point) int64 {
	mu.RLock()
	p := plans[point]
	mu.RUnlock()
	if p == nil {
		return 0
	}
	return p.fired.Load()
}

// IsInjected reports whether err (or anything it wraps) is an injected fault.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// IsTransient reports whether err (or anything it wraps) models a retryable
// condition: either an injected transient fault or any error exposing
// Transient() bool returning true.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}
