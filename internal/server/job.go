package server

import (
	"context"
	"sync"
	"time"

	"holistic/internal/core"
)

// Job states. A job moves queued → running → {done, partial, failed,
// canceled}; cache-served jobs jump straight from queued to done. Partial is
// the 206-style outcome: the run stopped early (deadline, cancellation) but
// the anytime result it accumulated — every dependency confirmed before the
// stop — is attached and valid.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StatePartial  = "partial"
	StateFailed   = "failed"
	StateCanceled = "canceled"
	// StateLost is the terminal state of a journaled job that was queued or
	// running when the process died and cannot be re-executed (dataset jobs
	// carry in-memory session state). Clients polling the job ID get a
	// definitive answer instead of a record the server forgot.
	StateLost = "lost"
)

// terminal reports whether state is a final job state.
func terminal(state string) bool {
	switch state {
	case StateDone, StatePartial, StateFailed, StateCanceled, StateLost:
		return true
	}
	return false
}

// job is the server-side record of one profiling request. The mutex guards
// the mutable fields; the event log has its own lock so streaming readers
// never contend with state transitions beyond the append itself.
type job struct {
	id  string
	req jobRequest
	key cacheKey
	src *core.MemoSource

	// exec, when set, replaces the default strategy run: dataset jobs
	// (initial profiles and batch appends) execute through it so they flow
	// through the same queue, worker pool, retry loop, panic containment and
	// event stream as plain jobs. It returns the engine result plus the
	// report to attach; exec jobs never enter the content-addressed result
	// cache (their output depends on accumulated dataset state, not only on
	// the request bytes).
	exec func(ctx context.Context, opts core.Options, obs core.Observer) (*core.Result, *core.Report, error)
	// noRetry disables the transient-error retry loop. Batch appends set it:
	// re-running a partially applied append would fold the same rows in
	// twice.
	noRetry bool
	// done, when set, is invoked exactly once after the job reaches a
	// terminal state (finish or a queued-state cancellation), with that
	// state and error message, before the job's event stream closes (see
	// Server.announce). Dataset jobs use it to release the per-dataset busy
	// flag and settle the dataset state.
	done func(state, errMsg string)
	// datasetID links a dataset job to its session (empty for plain jobs);
	// journaled terminal records carry it so replay can settle the session.
	datasetID string
	// journaled marks jobs whose admission was written to the state WAL;
	// only those journal their terminal transition too.
	journaled bool
	// idemKey is the submission's idempotency key (empty without one).
	// While the job is retained, the server's dedup table maps the key back
	// to it, so retried submissions replay this job instead of enqueueing a
	// duplicate.
	idemKey string
	// breakerKey identifies the (dataset fingerprint, algorithm) circuit
	// breaker this job's outcome feeds; hasBreaker gates it (dataset jobs
	// and replayed stubs stay outside the breaker).
	breakerKey breakerKey
	hasBreaker bool
	// degraded marks a job admitted above the soft memory watermark: the
	// run gets a shrunken PLI cache budget (results stay exact — the budget
	// trades speed for footprint).
	degraded bool

	mu        sync.Mutex
	state     string
	err       string
	result    *core.Report
	cacheHit  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	// timeout is the job's deadline, counted from submitted (0 = none).
	timeout time.Duration
	// cancel aborts the job: before the worker picks the job up it only
	// flips canceled (the worker skips it); while running it cancels the
	// profiling context.
	cancel   context.CancelFunc
	canceled bool // cancellation requested (DELETE or shutdown)

	events *eventLog
}

// release drops the job's input once it is terminal: the inline CSV, the
// memoised source (its byte copy and loaded relation) and the exec closure
// (which captures a batch's rows or a dataset's source). Nothing reads them
// after the terminal transition, so a retained record keeps only metadata,
// its report and its event log.
func (j *job) release() {
	j.mu.Lock()
	j.req.CSV = ""
	j.src = nil
	j.exec = nil
	j.mu.Unlock()
}

// view renders the job's externally visible state.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		State:       j.state,
		Algorithm:   j.req.Algorithm,
		Dataset:     j.req.Dataset,
		DatasetSHA:  j.key.DatasetSHA256,
		CacheHit:    j.cacheHit,
		Degraded:    j.degraded,
		IdemKey:     j.idemKey,
		Error:       j.err,
		SubmittedAt: j.submitted,
		Result:      j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// JobView is the JSON shape of a job returned by the HTTP API.
type JobView struct {
	ID          string       `json:"id"`
	State       string       `json:"state"`
	Algorithm   string       `json:"algorithm"`
	Dataset     string       `json:"dataset"`
	DatasetSHA  string       `json:"dataset_sha256"`
	CacheHit    bool         `json:"cache_hit,omitempty"`
	Degraded    bool         `json:"degraded,omitempty"`
	IdemKey     string       `json:"idempotency_key,omitempty"`
	Error       string       `json:"error,omitempty"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   *time.Time   `json:"started_at,omitempty"`
	FinishedAt  *time.Time   `json:"finished_at,omitempty"`
	Result      *core.Report `json:"result,omitempty"`
}

// JobEvent is one line of a job's progress stream: either a job lifecycle
// transition (type "state") or an engine progress event (core.Event types),
// stamped with a per-job sequence number and wall-clock time.
type JobEvent struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	core.Event
	// State carries the new job state of a "state" event; Error carries the
	// failure reason when that state is failed or canceled.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Attempt numbers a "retry" event: the upcoming attempt (the first run
	// is attempt 0, the first retry is attempt 1).
	Attempt int `json:"attempt,omitempty"`
	// Stack carries the captured stack trace of a "panic" event, so a
	// strategy panic is diagnosable from the job's event log alone.
	Stack string `json:"stack,omitempty"`
}

// JobEvent types emitted by the server itself (engine progress events keep
// their core.Event types).
const (
	// EventState is the JobEvent type of a job lifecycle transition.
	EventState = "state"
	// EventRetry announces a bounded retry after a transient failure.
	EventRetry = "retry"
	// EventPanic records a recovered strategy panic, stack attached.
	EventPanic = "panic"
	// EventReplay marks a job that was re-enqueued from the journal after a
	// restart: everything before it happened in a previous process.
	EventReplay = "replay"
)

// eventLog is an append-only, subscribable record of a job's events. Readers
// follow a cursor into the slice and block on the condition variable until
// new events arrive or the log closes, so every subscriber sees the full
// history (replay) followed by the live tail, with no events dropped.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []JobEvent
	closed bool
}

func newEventLog() *eventLog {
	l := &eventLog{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// append stamps and stores e, waking all waiting subscribers.
func (l *eventLog) append(e JobEvent) {
	l.mu.Lock()
	e.Seq = len(l.events)
	e.Time = time.Now().UTC()
	l.events = append(l.events, e)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// close marks the log complete (the job reached a terminal state) and wakes
// subscribers so they can drain and stop.
func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// next returns the events at index >= from, blocking until at least one is
// available, the log closes, or ctx is done. The boolean reports whether the
// stream is complete (log closed and fully consumed, or ctx done).
func (l *eventLog) next(ctx context.Context, from int) ([]JobEvent, bool) {
	// cond.Wait cannot watch ctx, so a helper wakes the waiters when the
	// subscriber's request context ends.
	stop := context.AfterFunc(ctx, l.cond.Broadcast)
	defer stop()

	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.events) <= from && !l.closed && ctx.Err() == nil {
		l.cond.Wait()
	}
	if ctx.Err() != nil {
		return nil, true
	}
	batch := append([]JobEvent(nil), l.events[from:]...)
	return batch, l.closed && len(l.events) == from+len(batch)
}
