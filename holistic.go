// Package holistic is a holistic data profiler: it discovers the three most
// important kinds of relational metadata — unary inclusion dependencies,
// minimal unique column combinations, and minimal functional dependencies —
// in a single run that shares I/O and data structures across the three tasks
// and prunes each task's search space with the others' results.
//
// It is a from-scratch Go implementation of the algorithms from
// "Holistic Data Profiling: Simultaneous Discovery of Various Metadata"
// (Ehrlich, Roick, Schulze, Zwiener, Papenbrock, Naumann — EDBT 2016),
// including the paper's novel MUDS algorithm, the Holistic FUN adaption, the
// sequential SPIDER+DUCC+FUN baseline, and the TANE comparison algorithm.
//
// # Quick start
//
//	rel, err := holistic.ReadCSVFile("data.csv", holistic.CSVOptions{HasHeader: true})
//	if err != nil { ... }
//	res := holistic.ProfileRelation(rel, holistic.Options{})
//	for _, f := range res.FDs  { fmt.Println(f) }   // minimal FDs
//	for _, u := range res.UCCs { fmt.Println(u) }   // minimal UCCs (keys)
//	for _, d := range res.INDs { fmt.Println(d) }   // unary INDs
//
// The heavy lifting lives in the internal packages (one per subsystem); this
// package re-exports the stable surface via type aliases and thin wrappers.
package holistic

import (
	"context"

	"holistic/internal/bitset"
	"holistic/internal/core"
	"holistic/internal/fd"
	"holistic/internal/incremental"
	"holistic/internal/ind"
	"holistic/internal/pli"
	"holistic/internal/relation"
	"holistic/internal/stats"
)

// Core data types, re-exported from the internal subsystems.
type (
	// Relation is an immutable, dictionary-encoded relation instance with
	// duplicate rows removed.
	Relation = relation.Relation
	// CSVOptions controls CSV parsing.
	CSVOptions = relation.CSVOptions
	// RelationOptions controls NULL semantics of relation construction.
	RelationOptions = relation.Options
	// ColumnSet is a set of column indexes (up to 256 columns).
	ColumnSet = bitset.Set
	// FD is a minimal functional dependency LHS → RHS.
	FD = fd.FD
	// IND is a unary inclusion dependency Dependent ⊆ Referenced.
	IND = ind.IND
	// INDOptions configures IND discovery (NULL semantics).
	INDOptions = ind.Options
	// Options configures a profiling run.
	Options = core.Options
	// Result bundles INDs, UCCs, FDs and per-phase timings.
	Result = core.Result
	// Phase is a timed stage of a run.
	Phase = core.Phase
	// Source supplies input relations to the runners.
	Source = core.Source
	// CSVSource loads a relation from a CSV file on every input pass.
	CSVSource = core.CSVSource
	// RelationSource wraps an in-memory relation.
	RelationSource = core.RelationSource
	// Observer receives engine progress events (phase boundaries, check
	// counts, PLI cache statistics). NopObserver is a ready-made base.
	Observer = core.Observer
	// NopObserver implements Observer with no-ops; embed it to override
	// selected callbacks.
	NopObserver = core.NopObserver
	// Event is the serializable form of one Observer callback, suitable for
	// streaming progress over JSON transports.
	Event = core.Event
	// EventObserver adapts the Observer surface into a stream of Events
	// delivered to its Sink.
	EventObserver = core.EventObserver
	// MemoSource caches the first Load of an inner Source.
	MemoSource = core.MemoSource
	// CacheStats is a snapshot of the shared PLI cache counters.
	CacheStats = pli.CacheStats
	// Completeness records how far an interrupted (partial) run got.
	Completeness = core.Completeness
	// PanicError is the engine's conversion of a recovered profiling panic
	// into an ordinary error, captured stack included.
	PanicError = core.PanicError
)

// Profiling strategies.
const (
	// StrategyMuds is the paper's holistic MUDS algorithm (default).
	StrategyMuds = core.StrategyMuds
	// StrategyHolisticFun is FUN extended with UCC output and shared I/O.
	StrategyHolisticFun = core.StrategyHolisticFun
	// StrategyBaseline runs SPIDER, DUCC and FUN sequentially.
	StrategyBaseline = core.StrategyBaseline
	// StrategyTane runs the TANE FD algorithm only.
	StrategyTane = core.StrategyTane
	// StrategyFDFirst discovers FDs with FUN and infers the minimal UCCs
	// from them via Lemma 2 (the "FDs first" approach of paper Sec. 3.1).
	StrategyFDFirst = core.StrategyFDFirst
)

// Strategies lists the supported strategy names.
func Strategies() []string { return core.Strategies() }

// NewRelation builds a relation from row-major string data; duplicate rows
// are removed.
func NewRelation(name string, columnNames []string, rows [][]string) (*Relation, error) {
	return relation.New(name, columnNames, rows)
}

// NewRelationWithOptions builds a relation with explicit NULL semantics
// (SQL-style NULL ≠ NULL via RelationOptions.DistinctNulls).
func NewRelationWithOptions(name string, columnNames []string, rows [][]string, opts RelationOptions) (*Relation, error) {
	return relation.NewWithOptions(name, columnNames, rows, opts)
}

// ReadCSVFile loads a relation from a CSV file.
func ReadCSVFile(path string, opts CSVOptions) (*Relation, error) {
	return relation.ReadCSVFile(path, opts)
}

// Profile runs the holistic MUDS algorithm on the source.
func Profile(src Source, opts Options) (*Result, error) {
	return core.Run(core.StrategyMuds, src, opts)
}

// ProfileContext runs MUDS on the source under ctx: when ctx is cancelled or
// its deadline passes, the run stops promptly and returns the partial result
// together with ctx.Err(). obs may be nil.
func ProfileContext(ctx context.Context, src Source, opts Options, obs Observer) (*Result, error) {
	return core.RunContext(ctx, core.StrategyMuds, src, opts, obs)
}

// ProfileRelation runs MUDS on an already-loaded relation.
func ProfileRelation(rel *Relation, opts Options) *Result {
	return core.Muds(rel, opts)
}

// ProfileWith runs the named strategy (see Strategies for the choices).
func ProfileWith(strategy string, src Source, opts Options) (*Result, error) {
	return core.Run(strategy, src, opts)
}

// ProfileWithContext runs the named strategy under ctx with an optional
// observer; cancellation behaves as in ProfileContext.
func ProfileWithContext(ctx context.Context, strategy string, src Source, opts Options, obs Observer) (*Result, error) {
	return core.RunContext(ctx, strategy, src, opts, obs)
}

// Columns is a convenience constructor for column sets.
func Columns(cols ...int) ColumnSet { return bitset.New(cols...) }

// Extension types beyond the paper's three core metadata kinds.
type (
	// NaryIND is an inclusion dependency between attribute sequences.
	NaryIND = ind.NaryIND
	// ApproxFD is an approximate FD with its g3 error.
	ApproxFD = fd.ApproxFD
	// ColumnStats holds single-column statistics.
	ColumnStats = stats.Column
	// Report is the JSON-friendly form of a Result with resolved names.
	Report = core.Report
)

// NewReport resolves a Result against its relation for serialisation;
// withStats embeds single-column statistics.
func NewReport(rel *Relation, res *Result, withStats bool) *Report {
	return core.NewReport(rel, res, withStats)
}

// NaryINDs discovers inclusion dependencies up to maxArity attributes per
// side (0 = unbounded), level-wise on top of SPIDER's unary results.
func NaryINDs(rel *Relation, opts INDOptions, maxArity int) []NaryIND {
	return ind.Nary(rel, opts, maxArity)
}

// ApproximateFDs discovers all minimal approximate FDs with g3 error ≤ eps
// (eps = 0 gives the exact minimal FDs). maxLHS bounds the left-hand-side
// size (0 = unbounded).
func ApproximateFDs(rel *Relation, eps float64, maxLHS int) []ApproxFD {
	return fd.ApproximateFDs(pli.NewProvider(rel, nil), eps, maxLHS)
}

// Statistics computes single-column statistics (type inference, distinct
// and NULL counts, extremes, frequent values) from the shared encoding.
func Statistics(rel *Relation) []ColumnStats {
	return stats.Profile(rel)
}

// Incremental profiling: delta-maintained metadata under appended row
// batches (see the internal/incremental package).
type (
	// IncrementalProfiler is a warm incremental session: it owns the relation
	// and its metadata, re-validates the prior metadata after each appended
	// batch over a PLI provider built for that batch, and restarts the
	// lattice walks only inside the invalidated region.
	IncrementalProfiler = incremental.Profiler
	// ProfileSnapshot is the serializable state of an incremental session,
	// written and resumed by the CLI's -snapshot flag and the profiling
	// service's dataset endpoints.
	ProfileSnapshot = incremental.Snapshot
)

// NewIncrementalProfiler runs the named strategy on rel from scratch and
// returns a warm profiler plus the initial result; use AppendBatch to fold in
// later row batches.
func NewIncrementalProfiler(ctx context.Context, rel *Relation, strategy string, opts Options, obs Observer) (*IncrementalProfiler, *Result, error) {
	return incremental.NewProfiler(ctx, rel, strategy, opts, obs)
}

// ResumeIncrementalProfiler reconstructs a warm profiler from a relation and
// a snapshot of a prior session without re-running discovery.
func ResumeIncrementalProfiler(rel *Relation, snap *ProfileSnapshot, opts Options) (*IncrementalProfiler, error) {
	return incremental.Resume(rel, snap, opts)
}

// ReadProfileSnapshot decodes a profile snapshot from a file.
func ReadProfileSnapshot(path string) (*ProfileSnapshot, error) {
	return incremental.ReadSnapshotFile(path)
}

// ProfileIncremental profiles rel with MUDS and then folds each batch in
// sequence. The returned result equals a from-scratch profile of the
// concatenated rows, computed at the incremental price: rel is extended in
// place, each batch re-checks the prior metadata over single-column PLIs
// built for it, and the lattice walks restart only where a batch violated
// prior metadata.
func ProfileIncremental(ctx context.Context, rel *Relation, batches [][][]string, opts Options) (*Result, error) {
	p, res, err := incremental.NewProfiler(ctx, rel, core.StrategyMuds, opts, nil)
	if err != nil {
		return res, err
	}
	for _, batch := range batches {
		if res, err = p.AppendBatch(ctx, batch, nil); err != nil {
			return res, err
		}
	}
	return res, nil
}
