// Package server turns the holistic profiling library into a long-running
// service: an HTTP/JSON job API layered over a bounded admission queue, a
// worker pool that drives the engine's strategy registry, a
// content-addressed result cache keyed by dataset bytes, and per-job
// progress streams adapted from the engine's Observer events.
//
// The layering (queue → workers → registry → PLI cache → result cache)
// exists because dependency discovery is exponential in the worst case:
// admission control and per-job deadlines bound the damage of a hostile
// dataset, while the result cache extends the paper's share-everything idea
// across requests — byte-identical submissions never touch the lattice
// twice.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/core"
	"holistic/internal/faults"
)

// maxRetainedJobs bounds the terminal job records kept for status queries;
// the oldest finished jobs are dropped first. A retained record holds the
// request's metadata, its report and its event log, never its input: the
// CSV, the parsed relation and a batch's rows are dropped at the terminal
// transition, so a full table costs about as much heap as the reports it
// serves (perfbench service-mix on a 2-CPU container: peak live heap
// 236 → 104 MB once records stopped holding their input).
const maxRetainedJobs = 1024

// Config tunes a Server. The zero value selects sensible defaults
// everywhere: 2 workers, a queue of 16, a 5-minute job deadline, inline-only
// submissions, 256 cached reports, 32 MiB request bodies.
type Config struct {
	// Workers is the number of jobs executed concurrently (<= 0 selects 2).
	// Each job may additionally fan out internally via its workers option.
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// rejected with 429 (<= 0 selects 16).
	QueueDepth int
	// DefaultTimeout is the per-job deadline, counted from admission,
	// applied when a request does not ask for one (0 selects 5 minutes;
	// negative disables the default).
	DefaultTimeout time.Duration
	// MaxTimeout caps requested deadlines (0 = no cap).
	MaxTimeout time.Duration
	// DataDir enables path-based submissions, resolved inside this
	// directory. Empty disables them: only inline CSV is accepted.
	DataDir string
	// CacheEntries bounds the content-addressed result cache (<= 0 selects
	// 256 reports).
	CacheEntries int
	// MaxBodyBytes bounds request bodies (<= 0 selects 32 MiB).
	MaxBodyBytes int64
	// MaxCacheBytes is the default PLI-cache byte budget applied to jobs
	// that do not set max_cache_bytes themselves (0 = engine default,
	// < 0 = unbudgeted).
	MaxCacheBytes int64
	// RetryAttempts bounds how often a job failing on a transient error is
	// re-run on its worker slot before it is finished as failed (0 selects
	// 2; negative disables retries).
	RetryAttempts int
	// RetryBackoff is the sleep before the first retry, doubled per attempt
	// (<= 0 selects 50ms).
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count at which the
	// per-(dataset, algorithm) circuit breaker opens (<= 0 selects 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fast-fails with 422
	// before half-opening for a single trial probe (<= 0 selects 30s).
	BreakerCooldown time.Duration
	// MemSoftBytes is the soft heap watermark: above it, newly admitted
	// jobs run degraded — PLI cache budget clamped to degradedCacheBytes
	// (0 disables).
	MemSoftBytes int64
	// MemHardBytes is the hard heap watermark: above it, submissions of
	// largeJobBytes or more are refused with 503 until pressure recedes
	// (0 disables).
	MemHardBytes int64
	// StateDir enables crash-safe state: every admitted job and dataset
	// session is journaled to a WAL in this directory, dataset profiler
	// state is checkpointed after every completed job, and Open replays the
	// directory on startup so sessions and job outcomes survive a kill -9.
	// Empty keeps the server fully in-memory.
	StateDir string
	// Logf, when non-nil, receives one line per job transition.
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.DefaultTimeout < 0 {
		c.DefaultTimeout = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 2
	}
	if c.RetryAttempts < 0 {
		c.RetryAttempts = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
}

// jobTimeout resolves a request's timeout_seconds into the job's deadline,
// counted from admission: the server default when unset, clamped to
// MaxTimeout (the server default is clamped, never rejected). 0 means none.
func (c *Config) jobTimeout(requested float64) time.Duration {
	timeout := c.DefaultTimeout
	if requested > 0 {
		timeout = time.Duration(requested * float64(time.Second))
	}
	if c.MaxTimeout > 0 && (timeout <= 0 || timeout > c.MaxTimeout) {
		timeout = c.MaxTimeout
	}
	return timeout
}

// Server is the profiling service. Create one with New, expose Handler on an
// http.Server, and stop it with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	cache   *resultCache
	metrics metrics

	// baseCtx parents every job context; cancelRuns aborts all in-flight
	// jobs (the forced half of shutdown).
	baseCtx    context.Context
	cancelRuns context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup

	// Overload-resilience subsystems: the adaptive admission controller
	// (service-time EWMAs), the per-key circuit breakers, and the
	// memory-watermark governor.
	admission *admission
	breakers  *breakerSet
	governor  *memGovernor

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	order    []string // submission order, for retention eviction
	nextID   int64
	// idem maps idempotency keys onto their jobs for the retained lifetime
	// of the job: a retried submission with a known key replays the
	// existing job instead of enqueueing a duplicate. Rebuilt from the
	// journal on recovery.
	idem map[string]*job

	// datasets are the server's incremental profiling sessions (see
	// dataset.go). They are keyed by id and live for the server's lifetime:
	// unlike finished jobs, a dataset holds warm state that future batch
	// appends extend, so there is no retention eviction.
	datasets map[string]*dataset
	dsOrder  []string // creation order, for listing
	nextDSID int64

	// consecutivePanics drives the health watchdog: incremented when a job
	// fails on a recovered panic, reset when one completes cleanly. At
	// degradedAfter, health reports degraded.
	consecutivePanics atomic.Int64

	// store is the durability layer behind Config.StateDir (nil without it).
	// crashed is the kill -9 test hook: set, it suppresses the drain-time
	// finalization so on-disk state looks exactly like a crash.
	store   *store
	crashed atomic.Bool

	shutdownOnce sync.Once
	finalizeOnce sync.Once
}

// Open builds a Server with cfg, replays Config.StateDir (when set) to
// restore dataset sessions and journaled jobs from before the last stop, and
// starts the worker pool. Jobs that were queued or running at the crash are
// re-enqueued (plain jobs) or finished as lost (dataset jobs) before any new
// submission is admitted.
func Open(cfg Config) (*Server, RecoveryStats, error) {
	cfg.applyDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		cache:      newResultCache(cfg.CacheEntries),
		baseCtx:    ctx,
		cancelRuns: cancel,
		queue:      make(chan *job, cfg.QueueDepth),
		jobs:       make(map[string]*job),
		idem:       make(map[string]*job),
		datasets:   make(map[string]*dataset),
		admission:  newAdmission(cfg.Workers),
		breakers:   newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		governor:   newMemGovernor(cfg.MemSoftBytes, cfg.MemHardBytes),
	}
	s.routes()

	var stats RecoveryStats
	if cfg.StateDir != "" {
		st, replay, err := openStore(cfg.StateDir)
		if err != nil {
			cancel()
			return nil, stats, fmt.Errorf("open state dir %s: %w", cfg.StateDir, err)
		}
		s.store = st
		var requeue []*job
		stats, requeue = s.recoverState(replay)
		// Replayed jobs enter the queue before the workers start, so they run
		// ahead of anything admitted over HTTP. More in-flight jobs than the
		// (possibly reconfigured) queue holds cannot be re-admitted — those
		// are finished as lost rather than silently dropped.
		for _, j := range requeue {
			select {
			case s.queue <- j:
			default:
				s.finish(j, StateLost, "replay: admission queue full", nil)
			}
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s, stats, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/datasets", s.handleCreateDataset)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /v1/datasets/{id}", s.handleGetDataset)
	s.mux.HandleFunc("POST /v1/datasets/{id}/batches", s.handleAppendBatch)
	s.mux.HandleFunc("GET /v1/datasets/{id}/profile", s.handleGetProfile)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// Handler returns the HTTP handler serving the job API.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Shutdown drains the server: admission switches to 503, still-queued jobs
// are canceled immediately, and in-flight jobs run on. When ctx expires
// before they finish, their contexts are canceled and Shutdown returns
// ctx.Err() after they unwind; a clean drain returns nil. Safe to call more
// than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		var queued []*job
		for _, j := range s.jobs {
			j.mu.Lock()
			if j.state == StateQueued {
				queued = append(queued, j)
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
		for _, j := range queued {
			s.cancelIfQueued(j, "server shutting down")
		}
		// No submission can be mid-send once draining is visible (the
		// non-blocking send happens under s.mu), so closing is safe.
		close(s.queue)
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelRuns()
		<-done
		err = ctx.Err()
	}
	// Every worker has unwound: no job can journal or checkpoint behind our
	// back anymore, so the durable state can be finalized (final checkpoints,
	// clean-shutdown marker, WAL close). Exactly once across repeated calls.
	s.finalizeOnce.Do(s.finalizeStore)
	return err
}

// --- job lifecycle ---

// runJob executes one queued job on a worker goroutine. Failure containment
// happens here: strategy panics come back from the engine as *core.PanicError
// (the worker pool and the daemon survive), transient errors are retried with
// backoff on the same worker slot, and a run stopped by its deadline finishes
// as partial with the anytime result it accumulated instead of discarding it.
func (s *Server) runJob(j *job) {
	// Defense in depth: the engine already converts profiling panics into
	// errors, but a panic in the server's own post-processing (report
	// building, cache insertion) must not kill the worker goroutine either.
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			s.consecutivePanics.Add(1)
			s.finish(j, StateFailed, fmt.Sprintf("internal panic: %v", r), nil)
		}
	}()

	sojourn := time.Since(j.submitted)
	s.metrics.queueWait.observe(sojourn.Seconds())

	j.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	// A job has one deadline, counted from admission: queue wait spends it
	// just as running does. Admission predicts whether it will hold; here is
	// the actual side. A job whose whole deadline lapsed in the queue is
	// doomed: fail it with an honest message instead of starting a run that
	// the already-expired context would cut on its first cancellation check.
	if j.timeout > 0 && sojourn >= j.timeout {
		msg := fmt.Sprintf("deadline (%v) elapsed after %v in queue; run never started — resubmit with a longer timeout or retry off-peak",
			j.timeout, sojourn.Round(time.Millisecond))
		j.state = StateFailed
		j.err = msg
		j.finished = time.Now().UTC()
		j.mu.Unlock()
		s.metrics.jobsDoomedInQueue.Add(1)
		// Neutral for the breaker: the queue, not the dataset, ate the
		// deadline.
		if j.hasBreaker {
			s.breakers.recordNeutral(j.breakerKey)
		}
		s.announce(j, StateFailed, msg)
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithDeadline(s.baseCtx, j.submitted.Add(j.timeout))
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.mu.Unlock()
	defer cancel()

	s.metrics.jobsRunning.Add(1)
	defer s.metrics.jobsRunning.Add(-1)
	j.events.append(JobEvent{Event: core.Event{Type: EventState}, State: StateRunning})
	s.logf("job %s running: algorithm=%s dataset=%s", j.id, j.req.Algorithm, j.req.Dataset)

	obs := core.EventObserver{Sink: func(e core.Event) {
		j.events.append(JobEvent{Event: e})
	}}
	opts := j.req.options()
	if opts.MaxCacheBytes == 0 {
		opts.MaxCacheBytes = s.cfg.MaxCacheBytes
	}
	if j.degraded {
		// Admitted above the soft memory watermark: clamp the PLI cache
		// budget. That trades wall time for footprint without changing
		// results (the budget only evicts), so degraded-run reports are
		// still cacheable.
		if opts.MaxCacheBytes <= 0 || opts.MaxCacheBytes > degradedCacheBytes {
			opts.MaxCacheBytes = degradedCacheBytes
		}
	}

	var res *core.Result
	var report *core.Report
	var err error
	for attempt := 0; ; attempt++ {
		if j.exec != nil {
			res, report, err = j.exec(ctx, opts, obs)
		} else {
			res, err = core.RunContext(ctx, j.req.Algorithm, j.src, opts, obs)
		}
		if err == nil || j.noRetry || attempt >= s.cfg.RetryAttempts || !faults.IsTransient(err) || ctx.Err() != nil {
			break
		}
		s.metrics.jobRetries.Add(1)
		j.events.append(JobEvent{Event: core.Event{Type: EventRetry}, Attempt: attempt + 1, Error: err.Error()})
		s.logf("job %s transient failure (attempt %d/%d): %v", j.id, attempt+1, s.cfg.RetryAttempts, err)
		select {
		case <-time.After(s.cfg.RetryBackoff << attempt):
		case <-ctx.Done():
		}
	}

	// A recovered panic is surfaced in the event log with its stack and
	// feeds the health watchdog; clean completion resets the watchdog.
	var pe *core.PanicError
	if errors.As(err, &pe) {
		s.metrics.panics.Add(1)
		s.consecutivePanics.Add(1)
		j.events.append(JobEvent{Event: core.Event{Type: EventPanic}, Error: pe.Error(), Stack: pe.Stack})
	}

	switch {
	case err == nil:
		s.consecutivePanics.Store(0)
		if j.exec == nil {
			report = core.NewReport(j.src.Relation(), res, j.req.WithStats)
			s.cache.put(j.key, report)
		}
		s.finish(j, StateDone, "", report)
	case errors.Is(err, context.Canceled):
		s.finish(j, StateCanceled, "canceled", nil)
	case errors.Is(err, context.DeadlineExceeded):
		msg := fmt.Sprintf("job deadline (%v from admission) exceeded", j.timeout)
		if report, ok := partialReport(j, res); ok {
			s.finish(j, StatePartial, msg, report)
			return
		}
		s.finish(j, StateFailed, msg, nil)
	default:
		s.finish(j, StateFailed, err.Error(), nil)
	}
}

// partialReport renders the anytime result of an interrupted run, provided it
// actually contains findings — every dependency confirmed before the stop is
// valid (minimality is only guaranteed per confirmed dependency). A run that
// was cut before producing anything stays a plain failure. Partial reports
// never enter the content-addressed result cache: the same submission must
// re-profile, not replay an incomplete answer.
func partialReport(j *job, res *core.Result) (*core.Report, bool) {
	if res == nil || !res.Partial || j.src == nil {
		return nil, false
	}
	if len(res.INDs)+len(res.UCCs)+len(res.FDs) == 0 {
		return nil, false
	}
	return core.NewReport(j.src.Relation(), res, j.req.WithStats), true
}

// finish moves j (owned by the calling worker, state running) to a terminal
// state and announces the transition. The outcome feeds the overload
// controllers: real service time trains the admission estimator, and the
// run's verdict settles this key's circuit breaker — success closes it,
// failure or a deadline blowout counts toward (or past) its threshold,
// cancellation and loss say nothing about the dataset and stay neutral.
func (s *Server) finish(j *job, state, errMsg string, report *core.Report) {
	j.mu.Lock()
	j.state = state
	j.err = errMsg
	j.result = report
	j.finished = time.Now().UTC()
	started, finished := j.started, j.finished
	j.mu.Unlock()
	if !started.IsZero() {
		switch state {
		case StateDone, StatePartial, StateFailed:
			s.admission.observeService(j.req.Algorithm, finished.Sub(started))
		}
	}
	if j.hasBreaker {
		switch state {
		case StateDone:
			s.breakers.recordSuccess(j.breakerKey)
		case StatePartial, StateFailed:
			if s.breakers.recordFailure(j.breakerKey, errMsg, finished) {
				s.logf("circuit breaker opened: sha=%s algorithm=%s after %q", j.breakerKey.sha[:12], j.breakerKey.alg, errMsg)
			}
		default:
			s.breakers.recordNeutral(j.breakerKey)
		}
	}
	s.announce(j, state, errMsg)
}

// announce completes a terminal transition whose state fields are already
// set: it bumps the outcome counter, releases the job's input, journals the
// end record, settles the job's dataset (if any), and only then records the
// transition in the job's event stream and closes it. A client that has seen
// the stream end therefore finds the job durably terminal, holding no input,
// and its dataset ready for the next batch. The end record must precede the
// settle: the busy flag is what keeps a session's next job from being
// journaled before the previous job's end, and recovery relies on only a
// session's last job lacking one.
func (s *Server) announce(j *job, state, errMsg string) {
	switch state {
	case StateDone:
		s.metrics.jobsDone.Add(1)
	case StatePartial:
		s.metrics.jobsPartial.Add(1)
	case StateFailed:
		s.metrics.jobsFailed.Add(1)
	case StateCanceled:
		s.metrics.jobsCanceled.Add(1)
	}
	s.logf("job %s %s%s", j.id, state, suffixIf(errMsg))
	j.release()
	// The terminal record lands after any checkpoint the job's exec wrote:
	// a journaled "done" therefore always has its durable state on disk.
	s.journalEnd(j, state, errMsg)
	if j.done != nil {
		j.done(state, errMsg)
	}
	j.events.append(JobEvent{Event: core.Event{Type: EventState}, State: state, Error: errMsg})
	j.events.close()
}

func suffixIf(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// cancelIfQueued finishes a still-queued job as canceled; the worker that
// later pulls it off the queue sees the terminal state and skips it. It is a
// no-op for running or terminal jobs. The transition happens atomically
// under the job lock, so it cannot interleave with a worker claiming the
// job (runJob moves queued → running under the same lock).
func (s *Server) cancelIfQueued(j *job, reason string) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.canceled = true
	j.state = StateCanceled
	j.err = reason
	j.finished = time.Now().UTC()
	j.mu.Unlock()
	// Neutral for the breaker: a canceled job says nothing about
	// whether its dataset is pathological, and a half-open trial slot it may
	// hold must be released.
	if j.hasBreaker {
		s.breakers.recordNeutral(j.breakerKey)
	}
	s.announce(j, StateCanceled, reason)
	return true
}

// registerLocked adds j to the job table, evicting the oldest terminal
// records beyond the retention bound; s.mu must be held. It also maintains
// the idempotency-key table: the key maps onto the job for exactly the job's
// retained lifetime, so dedup and retention expire together (a replayed key
// whose job was evicted is simply a fresh submission again).
func (s *Server) registerLocked(j *job) {
	s.jobs[j.id] = j
	if j.idemKey != "" {
		s.idem[j.idemKey] = j
	}
	s.order = append(s.order, j.id)
	for len(s.order) > maxRetainedJobs {
		evicted := false
		for i, id := range s.order {
			old := s.jobs[id]
			old.mu.Lock()
			dead := terminal(old.state)
			old.mu.Unlock()
			if dead {
				delete(s.jobs, id)
				if old.idemKey != "" && s.idem[old.idemKey] == old {
					delete(s.idem, old.idemKey)
				}
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // every retained job is still live; keep them all
		}
	}
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) jobCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// --- HTTP handlers ---

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// decodeBody decodes a bounded JSON request body into v with unknown fields
// rejected, writing the structured 400/413 response itself on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.logf("request rejected (413): %v", err)
			writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: err.Error()})
			return false
		}
		// Unknown fields land here too (DisallowUnknownFields); logging the
		// reason makes a typoed option debuggable server-side.
		s.logf("request rejected (400): invalid request body: %v", err)
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid request body: " + err.Error()})
		return false
	}
	return true
}

// resolveTimeout turns a request's timeout_seconds into the effective job
// deadline (see Config.jobTimeout). An explicitly requested out-of-range
// deadline is a client error — the 400 is written here — not something to
// silently clamp.
func (s *Server) resolveTimeout(w http.ResponseWriter, requested float64) (time.Duration, bool) {
	if limit := s.cfg.MaxTimeout; limit > 0 && requested > limit.Seconds() {
		s.logf("request rejected (400): timeout_seconds %g exceeds maximum %v", requested, limit)
		writeJSON(w, http.StatusBadRequest, apiError{
			Error: fmt.Sprintf("timeout_seconds must be <= %g", limit.Seconds()),
		})
		return 0, false
	}
	return s.cfg.jobTimeout(requested), true
}

// enqueueJob admits j: the draining check, the idempotency-key claim, the
// admission-control checks, the journal write, the send and the registration
// happen under one critical section, so Shutdown's queued-job sweep (same
// lock) sees every job that is in the queue, no send can be mid-flight when
// Shutdown closes the channel, and exactly one of any set of concurrent
// same-key submissions wins the key. The admit record (when the server is
// durable) is fsync'd BEFORE the job becomes runnable: a crash after the
// client's 202 can therefore never forget the job, and a worker can never
// finish a job whose admission was not journaled yet. Rejections (503
// draining or journal failure, 429 predicted-deadline or full) are written
// here, all with a Retry-After computed from the controller's wait estimate.
// The queued event and the returned view are taken before the send: once the
// job is in the queue a worker may start it, and its running and terminal
// events must follow queued, and the 202 body must still say queued.
func (s *Server) enqueueJob(w http.ResponseWriter, j *job, admit *walRecord) (JobView, bool) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.rejectedDraining.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is shutting down"})
		return JobView{}, false
	}
	// Idempotency double-check inside the critical section: a racing
	// duplicate may have claimed the key between handleSubmit's lock-free
	// fast path and here. The first claimant wins; everyone else replays its
	// job.
	if j.idemKey != "" {
		if prev, hit := s.idem[j.idemKey]; hit {
			s.mu.Unlock()
			s.replayIdem(w, prev)
			return JobView{}, false
		}
	}
	// Deadline-aware admission: with service-time history for this algorithm
	// in hand, a job predicted to exhaust its entire deadline queueing plus
	// running is rejected now with an honest Retry-After instead of being
	// accepted, parked, and failed minutes later. The slack margin absorbs
	// estimate noise; a cold controller (no history) always admits and learns.
	predictedWait := s.admission.predictWait(len(s.queue))
	if est, known := s.admission.estimateService(j.req.Algorithm); known && j.timeout > 0 {
		if predictedWait+est > j.timeout.Seconds()+admissionSlack(j.timeout).Seconds() {
			s.mu.Unlock()
			s.metrics.rejectedPredicted.Add(1)
			retry := retryAfterSecs(predictedWait)
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			s.logf("job rejected (429): predicted %.2fs wait + %.2fs service exceeds deadline %v", predictedWait, est, j.timeout)
			writeJSON(w, http.StatusTooManyRequests, apiError{
				Error: fmt.Sprintf("predicted completion (%.1fs queue wait + %.1fs service) exceeds the %v deadline; retry in %ds or raise timeout_seconds",
					predictedWait, est, j.timeout, retry),
			})
			return JobView{}, false
		}
	}
	// Capacity check instead of a non-blocking send: every send happens
	// under s.mu and workers only drain, so a free slot observed here cannot
	// vanish before the send below.
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.metrics.rejectedQueueFull.Add(1)
		retry := retryAfterSecs(predictedWait)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, apiError{
			Error: fmt.Sprintf("job queue is full (%d waiting); retry in %ds", s.cfg.QueueDepth, retry),
		})
		return JobView{}, false
	}
	if s.store != nil && admit != nil {
		if err := s.journal(*admit); err != nil {
			s.mu.Unlock()
			s.logf("job %s rejected (503): journal admit: %v", j.id, err)
			s.setRetryAfter(w)
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "state journal unavailable: " + err.Error()})
			return JobView{}, false
		}
		j.journaled = true
	}
	j.events.append(JobEvent{Event: core.Event{Type: EventState}, State: StateQueued})
	v := j.view()
	s.queue <- j
	s.registerLocked(j)
	s.mu.Unlock()
	s.metrics.jobsSubmitted.Add(1)
	return v, true
}

// setRetryAfter stamps a Retry-After computed from the controller's current
// queue-wait prediction (clamped to [1s, 60s]) — an honest hint, not a
// constant.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(s.admission.predictWait(len(s.queue)))))
}

// replayIdem answers a submission whose idempotency key already maps onto a
// job: the existing record — same ID, same event stream — is the response,
// 200 once it settled, 202 while it is still queued or running. The retry
// that raced a slow original gets the original's handle, never a duplicate
// execution.
func (s *Server) replayIdem(w http.ResponseWriter, prev *job) {
	s.metrics.idemReplays.Add(1)
	v := prev.view()
	code := http.StatusAccepted
	if terminal(v.State) {
		code = http.StatusOK
	}
	w.Header().Set("Idempotent-Replay", "true")
	w.Header().Set("Location", "/v1/jobs/"+prev.id)
	s.logf("job %s replayed (idempotency key dedup)", prev.id)
	writeJSON(w, code, v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Injected admission fault: proves a failing enqueue path surfaces as a
	// structured 503 with a retry hint, not a dead daemon or a hung client.
	if err := faults.Inject(faults.ServerEnqueue); err != nil {
		s.logf("submit rejected (injected fault): %v", err)
		s.setRetryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "admission unavailable: " + err.Error()})
		return
	}
	var req jobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// The Idempotency-Key header wins over the body field: the header is the
	// standard surface retry middlewares and proxies set without touching the
	// payload.
	if hk := r.Header.Get("Idempotency-Key"); hk != "" {
		req.IdempotencyKey = hk
	}
	key, src, size, err := req.normalize(s.cfg.DataDir)
	if err != nil {
		s.logf("submit rejected (400): %v", err)
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	timeout, ok := s.resolveTimeout(w, req.TimeoutSeconds)
	if !ok {
		return
	}

	// Idempotent fast path: a key that already maps onto a retained job —
	// this submission is a retry — replays that job before any admission
	// work happens. The authoritative claim check re-runs under the
	// admission critical section (enqueueJob) for submissions that get there.
	if req.IdempotencyKey != "" {
		s.mu.Lock()
		prev, hit := s.idem[req.IdempotencyKey]
		s.mu.Unlock()
		if hit {
			s.replayIdem(w, prev)
			return
		}
	}

	j := &job{
		req:       req,
		key:       key,
		src:       src,
		idemKey:   req.IdempotencyKey,
		state:     StateQueued,
		submitted: time.Now().UTC(),
		timeout:   timeout,
		events:    newEventLog(),
	}

	// Admission happens under the server lock so the draining check, the
	// non-blocking enqueue and Shutdown's close(queue) cannot interleave.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.rejectedDraining.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server is shutting down"})
		return
	}
	s.nextID++
	j.id = fmt.Sprintf("j-%d", s.nextID)
	s.mu.Unlock()

	// Content-addressed fast path: a byte-identical dataset profiled with
	// the same result-affecting options is served from the cache without
	// queueing.
	if report, ok := s.cache.get(key); ok {
		j.cacheHit = true
		j.state = StateDone
		j.result = report
		j.finished = j.submitted
		j.events.append(JobEvent{Event: core.Event{Type: EventState}, State: StateDone})
		j.events.close()
		// Claim the idempotency key and register under one lock section: a
		// racing duplicate that claimed the key first wins, and this
		// submission replays its job instead of registering a second record.
		s.mu.Lock()
		if j.idemKey != "" {
			if prev, hit := s.idem[j.idemKey]; hit {
				s.mu.Unlock()
				s.replayIdem(w, prev)
				return
			}
		}
		s.registerLocked(j)
		s.mu.Unlock()
		// Best-effort journal so the job ID answers "done" after a restart
		// too (the report itself lives only in the in-memory cache); the
		// client already has the result in hand, so a journal failure does
		// not reject the request. The record carries the full request, so
		// the input is released only after it.
		if err := s.journal(walRecord{Type: recJob, Job: j.id, Req: &j.req}); err == nil {
			j.journaled = true
			s.journalEnd(j, StateDone, "")
		} else if s.store != nil {
			s.logf("journal: cache-hit job %s: %v", j.id, err)
		}
		j.release()
		s.metrics.jobsSubmitted.Add(1)
		s.metrics.jobsDone.Add(1)
		s.logf("job %s done (result cache hit)", j.id)
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusOK, j.view())
		return
	}

	// Circuit breaker: a (dataset, algorithm) pair that keeps failing —
	// panics, deadline blowouts, hard errors — fast-fails here with the
	// error that tripped it, instead of burning another worker slot on work
	// the server has every reason to believe is doomed. 422: the request is
	// well-formed, the payload is the problem.
	bk := breakerKey{sha: key.DatasetSHA256, alg: key.Algorithm}
	if allowed, lastErr, retryIn := s.breakers.allow(bk, time.Now()); !allowed {
		s.metrics.rejectedBreaker.Add(1)
		s.metrics.breakerFastFails.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(retryIn.Seconds())))
		s.logf("job rejected (422): circuit breaker open for sha=%s algorithm=%s", key.DatasetSHA256[:12], key.Algorithm)
		writeJSON(w, http.StatusUnprocessableEntity, apiError{
			Error: fmt.Sprintf("circuit breaker open for this dataset and algorithm after repeated failures (last error: %s); retry after the cooldown", lastErr),
		})
		return
	}
	j.breakerKey = bk
	j.hasBreaker = true

	// Memory-watermark gate: above the hard watermark, large submissions are
	// refused outright; any pressure at all (soft or hard) makes admitted
	// jobs run degraded with a shrunken PLI cache budget. Results stay exact
	// either way.
	if level, heap := s.governor.state(); level != memHealthy {
		if level >= memHard && size >= largeJobBytes {
			s.metrics.rejectedMemPressure.Add(1)
			s.breakers.recordNeutral(bk)
			s.setRetryAfter(w)
			s.logf("job rejected (503): heap %d bytes above hard watermark, dataset %d bytes", heap, size)
			writeJSON(w, http.StatusServiceUnavailable, apiError{
				Error: fmt.Sprintf("memory pressure: heap is above the hard watermark; submissions of %d+ bytes are refused until it recedes", largeJobBytes),
			})
			return
		}
		j.degraded = true
	}

	v, ok := s.enqueueJob(w, j, &walRecord{Type: recJob, Job: j.id, Req: &j.req})
	if !ok {
		// The breaker may have admitted this submission as its half-open
		// trial probe; an admission rejection is no verdict on the key, so
		// the trial slot must be released for the next submission.
		s.breakers.recordNeutral(bk)
		return
	}
	s.logf("job %s queued: algorithm=%s dataset=%s sha256=%s", j.id, req.Algorithm, req.Dataset, key.DatasetSHA256[:12])
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		v := j.view()
		v.Result = nil // summaries stay light; fetch the job for the report
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	if s.cancelIfQueued(j, "canceled") {
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	j.mu.Lock()
	if terminal(j.state) {
		j.mu.Unlock()
		writeJSON(w, http.StatusOK, j.view()) // idempotent no-op
		return
	}
	// Running: flag the cancellation and cut the job's context; the worker
	// observes context.Canceled and finishes the job as canceled.
	j.canceled = true
	cancel := j.cancel
	j.mu.Unlock()
	cancel()
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	from := 0
	for {
		batch, done := j.events.next(r.Context(), from)
		for _, e := range batch {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		from += len(batch)
		if done {
			return
		}
	}
}

// Health statuses, as /healthz reports them.
const (
	healthOK       = "ok"
	healthDegraded = "degraded"
	healthDraining = "draining"
)

// degradedAfter is the panic watchdog's threshold: after this many
// consecutive jobs failing on recovered panics the server reports degraded
// until a job completes cleanly again. The watchdog sees panics across
// different datasets, which a per-key circuit breaker cannot.
const degradedAfter = 3

// health is the server's one health verdict: /healthz and the
// profiled_degraded gauge both read it. A degraded server keeps serving —
// panics are isolated per job — but some class of work is failing or being
// refused, and an operator should look. Every degraded cause clears on its
// own: one clean job resets the watchdog, breakers half-open after their
// cooldown, the governor re-samples the heap. reason explains a degraded
// status.
func (s *Server) health() (status, reason string) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return healthDraining, ""
	}
	if n := s.consecutivePanics.Load(); n >= degradedAfter {
		return healthDegraded, fmt.Sprintf("%d consecutive jobs failed on recovered panics", n)
	}
	if open, _ := s.breakers.counts(time.Now()); open > 0 {
		return healthDegraded, fmt.Sprintf("%d circuit breaker(s) open", open)
	}
	if level, _ := s.governor.last(); level >= memHard {
		return healthDegraded, "heap above the hard memory watermark"
	}
	return healthOK, ""
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, reason := s.health()
	code := http.StatusOK
	if status == healthDraining {
		code = http.StatusServiceUnavailable
	}
	body := map[string]string{"status": status}
	if reason != "" {
		body["reason"] = reason
	}
	writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}
