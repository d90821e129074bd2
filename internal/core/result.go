// Package core implements the paper's primary contribution: the holistic
// profiling algorithm MUDS (paper Secs. 4 and 5), which jointly discovers
// unary INDs, minimal UCCs and minimal FDs with inter-task pruning, plus the
// comparison strategies of the evaluation (sequential baseline, Holistic
// FUN, TANE) behind a uniform runner interface.
package core

import (
	"time"

	"holistic/internal/bitset"
	"holistic/internal/fd"
	"holistic/internal/ind"
	"holistic/internal/pli"
)

// Phase is one timed stage of a profiling run. The phase names of a MUDS run
// match Figure 8 of the paper.
type Phase struct {
	Name     string
	Duration time.Duration
}

// Result is the holistic profiling output: all three metadata types plus
// per-phase timings.
type Result struct {
	// INDs are the unary inclusion dependencies, sorted.
	INDs []ind.IND
	// UCCs are the minimal unique column combinations, sorted.
	UCCs []bitset.Set
	// FDs are the minimal functional dependencies, sorted. Constant columns
	// appear as ∅ → A.
	FDs []fd.FD
	// Phases holds the timed stages in execution order.
	Phases []Phase
	// Checks counts data-touching validity checks (uniqueness tests,
	// partition refinements) across all phases.
	Checks int
	// Algorithm is the registry name of the strategy that produced the
	// result ("muds", "tane", ...). The engine fills it from the registry.
	Algorithm string
	// Cache holds one PLI-cache snapshot per provider the run retired, in
	// reporting order (the sequential baseline reports several). The engine
	// assembles it from the Observer's CacheStats events.
	Cache []pli.CacheStats
	// Partial marks an anytime result: the run stopped early (deadline,
	// cancellation, panic, strategy error) and the dependency lists hold
	// only what was confirmed up to that point. Every dependency present is
	// still valid — the pruning-based algorithms only emit verified minimal
	// dependencies — but the lists may be incomplete. The engine sets it.
	Partial bool
	// Completeness describes how far a partial run got; nil on complete
	// runs.
	Completeness *Completeness
}

// Completeness is the per-task progress marker of a partial result: which
// phases ran to completion and which one the run was interrupted in. The
// phase names identify the task coverage — a MUDS run interrupted in
// "calculateRZ" has complete INDs and UCCs but only partially swept FDs; one
// interrupted in "DUCC" has complete INDs and a partial UCC walk.
type Completeness struct {
	// CompletedPhases lists the phases that ran to completion, in order.
	CompletedPhases []string `json:"completed_phases"`
	// InterruptedPhase names the phase the run stopped inside, if any.
	InterruptedPhase string `json:"interrupted_phase,omitempty"`
}

// Total returns the summed duration of all phases.
func (r *Result) Total() time.Duration {
	var t time.Duration
	for _, p := range r.Phases {
		t += p.Duration
	}
	return t
}

// Canonical MUDS phase names (Figure 8 of the paper). MUDS no longer emits
// PhaseMinimizeFDs, PhaseGenerateShadowed or PhaseMinimizeShadowed: the
// completion sweep replaced those phases. The names stay for readers of
// older phase breakdowns.
const (
	PhaseSpider           = "SPIDER"
	PhaseDucc             = "DUCC"
	PhaseMinimizeFDs      = "minimizeFDs"
	PhaseCalculateRZ      = "calculateRZ"
	PhaseGenerateShadowed = "generateShadowedTasks"
	PhaseMinimizeShadowed = "minimizeShadowedTasks"
	PhaseCompletionSweep  = "completionSweep"
	PhaseLoad             = "load"
	PhaseFDDiscovery      = "fdDiscovery"  // FUN/TANE runs (non-MUDS)
	PhaseUCCDiscovery     = "uccDiscovery" // DUCC in the sequential baseline
	PhaseUCCInference     = "uccInference" // Lemma-2 key derivation (fdfirst)
)

// Phase names of an incremental (batch-append) run. They partition the work
// the same way Figure 8 partitions a full run: fold the batch into the data
// structures, re-check the prior metadata, then repair only what broke.
const (
	PhaseAppend     = "append"     // relation extension + the batch's PLI provider
	PhaseRevalidate = "revalidate" // re-check prior UCCs/FDs on the extended relation
	PhaseUCCRepair  = "uccRepair"  // seeded DUCC restart over the invalidated region
	PhaseFDRepair   = "fdRepair"   // per-RHS seeded lattice repair
	PhaseINDDelta   = "indDelta"   // missing-matrix delta (or full SPIDER fallback)
)
