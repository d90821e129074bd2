package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"holistic/internal/parallel"
	"holistic/internal/pli"
	"holistic/internal/relation"
)

// Strategy is one pluggable profiling algorithm. Implementations receive an
// already-loaded relation and report progress (phase boundaries, check
// counts, cache statistics) through the Observer; the engine harness owns
// loading, phase-duration bookkeeping and check totals, so Profile fills
// only the dependency lists of its Result.
//
// Profile must poll ctx inside its long traversals and return ctx.Err()
// promptly when the context is cancelled, together with whatever partial
// result exists at that point.
type Strategy interface {
	// Name is the registry key (e.g. "muds").
	Name() string
	// Profile runs the strategy on rel.
	Profile(ctx context.Context, rel *relation.Relation, opts Options, obs Observer) (*Result, error)
}

// strategyFunc adapts a plain function to the Strategy interface.
type strategyFunc struct {
	name string
	fn   func(ctx context.Context, rel *relation.Relation, opts Options, obs Observer) (*Result, error)
}

func (s strategyFunc) Name() string { return s.name }

func (s strategyFunc) Profile(ctx context.Context, rel *relation.Relation, opts Options, obs Observer) (*Result, error) {
	return s.fn(ctx, rel, opts, obs)
}

// The registry maps strategy names to implementations. Registration order is
// preserved: Strategies() lists names in the order they were registered, so
// the default strategy (MUDS, registered first) leads the help texts derived
// from it.
var registry = struct {
	order  []string
	byName map[string]Strategy
}{byName: make(map[string]Strategy)}

// Register adds a strategy to the registry. It panics on a duplicate name —
// registration happens from init functions, where a collision is a
// programming error.
func Register(s Strategy) {
	name := s.Name()
	if name == "" {
		panic("core: Register with empty strategy name")
	}
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("core: duplicate strategy %q", name))
	}
	registry.byName[name] = s
	registry.order = append(registry.order, name)
}

// Lookup returns the registered strategy with the given name.
func Lookup(name string) (Strategy, bool) {
	s, ok := registry.byName[name]
	return s, ok
}

// Strategies lists the registered strategy names in registration order. CLI
// help texts and validation derive from this list, so it cannot drift from
// what Run accepts.
func Strategies() []string {
	out := make([]string, len(registry.order))
	copy(out, registry.order)
	return out
}

// unknownStrategyError builds the error for a name missing from the registry.
func unknownStrategyError(name string) error {
	return fmt.Errorf("core: unknown strategy %q (want one of %v)", name, Strategies())
}

// recorder is the engine-installed Observer: it assembles Result.Phases and
// Result.Checks from the phase/check events while forwarding every event to
// the user's observer. Durations of repeated phases (the baseline's extra
// input passes) are merged into one entry at the phase's first position,
// matching the paper's Figure 8 layout.
type recorder struct {
	// ctx is the run's context: a phase that ends after it is done was cut
	// short.
	ctx    context.Context
	user   Observer
	phases []Phase
	index  map[string]int
	checks int
	cache  []pli.CacheStats
	// current is the phase that has started but not yet ended; a run that
	// stops early reports it as the interrupted phase of its Completeness.
	current string
}

func newRecorder(ctx context.Context, user Observer) *recorder {
	if user == nil {
		user = NopObserver{}
	}
	return &recorder{ctx: ctx, user: user, index: make(map[string]int)}
}

func (r *recorder) PhaseStart(name string) {
	r.current = name
	r.user.PhaseStart(name)
}

func (r *recorder) PhaseEnd(name string, d time.Duration) {
	if r.current == name && r.ctx.Err() == nil {
		r.current = ""
	}
	if i, ok := r.index[name]; ok {
		r.phases[i].Duration += d
	} else {
		r.index[name] = len(r.phases)
		r.phases = append(r.phases, Phase{Name: name, Duration: d})
	}
	r.user.PhaseEnd(name, d)
}

func (r *recorder) Checks(delta int) {
	r.checks += delta
	r.user.Checks(delta)
}

func (r *recorder) CacheStats(stats pli.CacheStats) {
	r.cache = append(r.cache, stats)
	r.user.CacheStats(stats)
}

func (r *recorder) Parallelism(phase string, workers int) { r.user.Parallelism(phase, workers) }

// finish writes the accumulated phases, checks and cache snapshots into res.
func (r *recorder) finish(res *Result) {
	res.Phases = r.phases
	res.Checks = r.checks
	res.Cache = r.cache
}

// completeness snapshots how far the run got: the phases that completed and
// the one it stopped inside, if any.
func (r *recorder) completeness() *Completeness {
	c := &Completeness{InterruptedPhase: r.current}
	for _, p := range r.phases {
		if p.Name != r.current {
			c.CompletedPhases = append(c.CompletedPhases, p.Name)
		}
	}
	return c
}

// TimePhase runs fn as the named phase, reporting its boundaries and wall
// time to obs. It refuses to start a phase on a dead context, so a cancelled
// run stops at the next phase boundary even if fn never polls ctx.
func TimePhase(ctx context.Context, obs Observer, name string, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	obs.PhaseStart(name)
	start := time.Now()
	err := fn()
	obs.PhaseEnd(name, time.Since(start))
	return err
}

// Run executes the named profiling strategy on src without a deadline.
func Run(strategy string, src Source, opts Options) (*Result, error) {
	return RunContext(context.Background(), strategy, src, opts, nil)
}

// RunContext is the engine's entry point: it resolves the strategy in the
// registry (failing fast, before any input is read), then, under Track,
// loads the input once as the timed "load" phase and runs the strategy.
//
// obs may be nil. When ctx is cancelled or its deadline passes, the run
// stops promptly and returns the partial result — dependency lists found so
// far plus the phase timings — together with ctx.Err(); a run cancelled
// before its input was loaded returns no result. Panics anywhere inside the
// run (the loader, the strategy, a parallel worker task) come back as a
// *PanicError, as Track describes.
func RunContext(ctx context.Context, strategy string, src Source, opts Options, obs Observer) (*Result, error) {
	s, ok := Lookup(strategy)
	if !ok {
		return nil, unknownStrategyError(strategy)
	}
	return Track(ctx, strategy, obs, func(ctx context.Context, obs Observer) (*Result, error) {
		var rel *relation.Relation
		err := TimePhase(ctx, obs, PhaseLoad, func() (err error) {
			rel, err = src.Load()
			return err
		})
		if err != nil {
			return nil, err
		}
		return s.Profile(ctx, rel, opts, obs)
	})
}

// RunRelationContext runs the named strategy on an already-loaded relation
// (no "load" phase is reported). obs may be nil; cancellation behaves as in
// RunContext.
func RunRelationContext(ctx context.Context, strategy string, rel *relation.Relation, opts Options, obs Observer) (*Result, error) {
	s, ok := Lookup(strategy)
	if !ok {
		return nil, unknownStrategyError(strategy)
	}
	return Track(ctx, strategy, obs, func(ctx context.Context, obs Observer) (*Result, error) {
		return s.Profile(ctx, rel, opts, obs)
	})
}

// Track is the run harness: every profiling run, a full strategy run or an
// incremental batch, goes through it. It hands run an Observer that records
// the phases, check counts and cache snapshots while forwarding every event
// to obs (which may be nil), and finalises the result: Algorithm, Phases,
// Checks and Cache always, Partial and Completeness when run returned an
// error. A nil ctx means context.Background().
//
// A panic anywhere below run (its body, a parallel worker task re-raised as
// *parallel.TaskPanic, an injected fault) is recovered into a *PanicError
// and returned beside an empty partial result, so callers can still read the
// phases recorded before it. Otherwise a run that returns no result gets
// none back: plain errors, and runs cancelled before they produced one, keep
// the nil-result contract.
func Track(ctx context.Context, algorithm string, obs Observer, run func(context.Context, Observer) (*Result, error)) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rec := newRecorder(ctx, obs)
	defer func() {
		if r := recover(); r != nil {
			res, err = &Result{}, recoveredError(algorithm, r)
		}
		if res == nil {
			return
		}
		res.Algorithm = algorithm
		rec.finish(res)
		if err != nil {
			res.Partial = true
			res.Completeness = rec.completeness()
		}
	}()
	return run(ctx, rec)
}

// recoveredError converts a recovered panic value into a *PanicError,
// preserving a worker task's original stack when the panic crossed a
// parallel.For boundary.
func recoveredError(strategy string, r any) error {
	if tp, ok := r.(*parallel.TaskPanic); ok {
		return &PanicError{Strategy: strategy, Value: tp, Stack: string(tp.Stack)}
	}
	return &PanicError{Strategy: strategy, Value: r, Stack: string(debug.Stack())}
}
