package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"holistic/internal/core"
	"holistic/internal/incremental"
	"holistic/internal/relation"
)

// Dataset states. A dataset moves profiling → ready, then cycles
// ready → appending → ready per accepted batch. Any failed or canceled job —
// an aborted initial profile, a batch cut off mid-append — moves it to
// failed: the warm incremental state is no longer a sound revalidation
// baseline, so the dataset stops accepting batches (the last completed
// profile stays readable).
const (
	DatasetProfiling = "profiling"
	DatasetReady     = "ready"
	DatasetAppending = "appending"
	DatasetFailed    = "failed"
)

// dataset is one incremental profiling session: a warm
// incremental.Profiler plus the last completed report, extended batch by
// batch through jobs on the shared worker pool. The mutex guards every
// mutable field; profiler methods are only ever invoked from the single job
// the busy flag admits, which restores AppendBatch's exclusivity contract.
type dataset struct {
	id string

	mu      sync.Mutex
	state   string
	busy    bool // a profile or batch job is queued or running
	version int  // completed profile generation: 1 after the initial profile, +1 per batch
	err     string
	report  *core.Report
	prof    *incremental.Profiler
	req     jobRequest // creation request; batches inherit its options
	created time.Time
	updated time.Time
	jobIDs  []string // every job run for this dataset, in order
}

// view renders the dataset's externally visible state.
func (d *dataset) view() DatasetView {
	d.mu.Lock()
	defer d.mu.Unlock()
	v := DatasetView{
		ID:        d.id,
		State:     d.state,
		Dataset:   d.req.Dataset,
		Algorithm: d.req.Algorithm,
		Version:   d.version,
		Error:     d.err,
		JobIDs:    append([]string(nil), d.jobIDs...),
		CreatedAt: d.created,
		UpdatedAt: d.updated,
	}
	if d.report != nil {
		v.Rows = d.report.Rows
		v.Columns = append([]string(nil), d.report.Columns...)
	}
	return v
}

// DatasetView is the JSON shape of a dataset returned by the HTTP API.
type DatasetView struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Dataset   string    `json:"dataset"`
	Algorithm string    `json:"algorithm"`
	Version   int       `json:"version"`
	Rows      int       `json:"rows,omitempty"`
	Columns   []string  `json:"columns,omitempty"`
	Error     string    `json:"error,omitempty"`
	JobIDs    []string  `json:"job_ids"`
	CreatedAt time.Time `json:"created_at"`
	UpdatedAt time.Time `json:"updated_at"`
}

// DatasetProfileView is the JSON shape of GET /v1/datasets/{id}/profile: the
// last completed profile generation with its version stamp.
type DatasetProfileView struct {
	ID      string       `json:"id"`
	State   string       `json:"state"`
	Version int          `json:"version"`
	Report  *core.Report `json:"report"`
}

// batchRequest is the JSON body of POST /v1/datasets/{id}/batches. The CSV
// carries data rows only — no header; parsing options (separator, NULL
// semantics) are inherited from the dataset's creation request.
type batchRequest struct {
	CSV            string  `json:"csv"`
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// settle releases the dataset's busy flag once its current job reaches a
// terminal state. Done means the job's exec already stored the new profiler
// state and report; anything else (failed, canceled, partial) poisons the
// session — a half-applied append or an aborted initial profile leaves no
// sound baseline to revalidate against.
func (d *dataset) settle(state, errMsg string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.busy = false
	d.updated = time.Now().UTC()
	if state == StateDone {
		d.state = DatasetReady
		d.err = ""
		return
	}
	d.state = DatasetFailed
	d.err = errMsg
	d.prof = nil
}

// abandon reverts a busy claim whose job was never admitted (queue full or
// draining), restoring the state the claim replaced.
func (d *dataset) abandon(prevState string) {
	d.mu.Lock()
	d.busy = false
	d.state = prevState
	d.mu.Unlock()
}

// newDatasetJob builds a job that runs exec on the shared worker pool and
// settles d when it terminates.
func (s *Server) newDatasetJob(d *dataset, timeout time.Duration,
	exec func(ctx context.Context, opts core.Options, obs core.Observer) (*core.Result, *core.Report, error)) *job {
	j := &job{
		req:       d.req,
		state:     StateQueued,
		submitted: time.Now().UTC(),
		timeout:   timeout,
		events:    newEventLog(),
		exec:      exec,
		done:      d.settle,
		datasetID: d.id,
	}
	s.mu.Lock()
	s.nextID++
	j.id = fmt.Sprintf("j-%d", s.nextID)
	s.mu.Unlock()
	d.mu.Lock()
	d.jobIDs = append(d.jobIDs, j.id)
	d.mu.Unlock()
	return j
}

// handleCreateDataset implements POST /v1/datasets: it creates an
// incremental profiling session and queues its initial full profile. The
// body is the same shape as POST /v1/jobs. The response is 202 with the
// dataset view; poll GET /v1/datasets/{id} (or the initial job) until ready.
func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// normalize validates and resolves the dataset bytes; the cache key is
	// unused — an incremental session always needs the warm profiler, so it
	// never short-circuits through the result cache.
	_, src, _, err := req.normalize(s.cfg.DataDir)
	if err != nil {
		s.logf("dataset rejected (400): %v", err)
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	timeout, ok := s.resolveTimeout(w, req.TimeoutSeconds)
	if !ok {
		return
	}

	d := &dataset{
		state:   DatasetProfiling,
		busy:    true,
		req:     req,
		created: time.Now().UTC(),
		updated: time.Now().UTC(),
	}
	// The session keeps its creation options, not its input: the initial
	// job reads the bytes from src, and the creation record below journals
	// the full request for recovery. Batch jobs copy d.req, so they start
	// without a CSV too.
	d.req.CSV = ""
	// The id is assigned before the job is built (the job's datasetID links
	// its journaled terminal record back to the session) and the creation is
	// journaled before the dataset is published: a crash can forget an id
	// the client never saw, but never one it did.
	s.mu.Lock()
	s.nextDSID++
	d.id = fmt.Sprintf("d-%d", s.nextDSID)
	s.mu.Unlock()
	j := s.newDatasetJob(d, timeout, func(ctx context.Context, opts core.Options, obs core.Observer) (*core.Result, *core.Report, error) {
		return s.runInitialProfile(ctx, d, src, opts, obs)
	})
	// j.src lets a deadline hit surface the anytime partial result on the
	// job record (the dataset itself still fails — a partial profile is not
	// a revalidation baseline).
	j.src = src

	if s.store != nil {
		if err := s.journal(walRecord{Type: recDataset, Dataset: d.id, Req: &req}); err != nil {
			s.logf("dataset rejected (503): journal create: %v", err)
			s.setRetryAfter(w)
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "state journal unavailable: " + err.Error()})
			return
		}
	}

	s.mu.Lock()
	s.datasets[d.id] = d
	s.dsOrder = append(s.dsOrder, d.id)
	s.mu.Unlock()

	if _, ok := s.enqueueJob(w, j, &walRecord{Type: recDSJob, Job: j.id, Dataset: d.id, Kind: dsJobProfile}); !ok {
		// Admission failed after the dataset was published: keep the record
		// (clients may already hold the id) but mark it failed.
		d.settle(StateFailed, "initial profile was not admitted (queue full or shutting down)")
		return
	}
	s.metrics.datasetsCreated.Add(1)
	s.logf("dataset %s created: job %s algorithm=%s dataset=%s", d.id, j.id, req.Algorithm, req.Dataset)
	w.Header().Set("Location", "/v1/datasets/"+d.id)
	writeJSON(w, http.StatusAccepted, d.view())
}

// runInitialProfile is the exec body of a dataset's first job: a full
// from-scratch profile that leaves a warm incremental profiler behind.
func (s *Server) runInitialProfile(ctx context.Context, d *dataset, src *core.MemoSource, opts core.Options, obs core.Observer) (*core.Result, *core.Report, error) {
	rel, err := src.Load()
	if err != nil {
		return nil, nil, err
	}
	prof, res, err := incremental.NewProfiler(ctx, rel, d.req.Algorithm, opts, obs)
	if err != nil {
		return res, nil, err
	}
	report := core.NewReport(rel, res, d.req.WithStats)
	d.mu.Lock()
	d.prof = prof
	d.report = report
	d.version = prof.Version() + 1
	d.mu.Unlock()
	// A dataset job only counts as done once its state is durable: a failed
	// checkpoint fails the job, which poisons the session instead of letting
	// a restart lose state a client was told exists.
	if err := s.checkpointDataset(d, prof, report); err != nil {
		return res, nil, err
	}
	return res, report, nil
}

// checkpointDataset persists a dataset's warm profiler state and latest
// report (atomic write, no-op without a state dir). Every successful dataset
// job ends with one, BEFORE its terminal record is journaled.
func (s *Server) checkpointDataset(d *dataset, prof *incremental.Profiler, report *core.Report) error {
	if s.store == nil {
		return nil
	}
	ck := &datasetCheckpoint{
		Dataset:  d.id,
		Version:  prof.Version() + 1,
		Snapshot: prof.Snapshot(),
		Report:   report,
	}
	if err := s.store.writeCheckpoint(ck); err != nil {
		return fmt.Errorf("checkpoint dataset %s: %w", d.id, err)
	}
	s.metrics.checkpoints.Add(1)
	return nil
}

// handleAppendBatch implements POST /v1/datasets/{id}/batches: it folds a
// batch of rows into the dataset's warm profiler through a job on the shared
// worker pool. Exactly one profile or batch job may be in flight per dataset;
// a concurrent submission is rejected with 409 rather than queued, because a
// queued batch would observe revalidation state the client never saw.
func (s *Server) handleAppendBatch(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookupDataset(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown dataset"})
		return
	}
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.CSV == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "csv is required"})
		return
	}
	timeout, ok := s.resolveTimeout(w, req.TimeoutSeconds)
	if !ok {
		return
	}

	// Parse and validate the batch rows up front: a malformed batch is the
	// client's 400, and rejecting it before the claim means it cannot poison
	// the session. Surviving AppendBatch failures (deadline, cancellation,
	// contained panics) are genuine session losses.
	sep := ','
	if d.req.Separator != "" {
		sep = rune(d.req.Separator[0])
	}
	_, rows, err := relation.ReadCSVRows("batch", strings.NewReader(req.CSV), relation.CSVOptions{
		Comma:     sep,
		HasHeader: false,
	})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	s.appendBatch(w, d, rows, timeout)
}

// appendBatch claims d for a batch of parsed rows and queues the job that
// folds them in, writing the response itself: 202 with the dataset view, or
// the 409/400/429/503 rejection.
func (s *Server) appendBatch(w http.ResponseWriter, d *dataset, rows [][]string, timeout time.Duration) {
	// Claim the dataset (409 on any in-flight job) and check the batch width
	// against the profiled schema under the same lock.
	d.mu.Lock()
	if d.busy {
		state := d.state
		d.mu.Unlock()
		writeJSON(w, http.StatusConflict, apiError{
			Error: fmt.Sprintf("dataset %s has a job in flight (state %s); retry when it finishes", d.id, state),
		})
		return
	}
	if d.state != DatasetReady || d.prof == nil {
		msg := fmt.Sprintf("dataset %s is %s and cannot accept batches", d.id, d.state)
		if d.err != "" {
			msg += ": " + d.err
		}
		d.mu.Unlock()
		writeJSON(w, http.StatusConflict, apiError{Error: msg})
		return
	}
	if want := len(d.report.Columns); len(rows) > 0 && len(rows[0]) != want {
		d.mu.Unlock()
		writeJSON(w, http.StatusBadRequest, apiError{
			Error: fmt.Sprintf("batch rows have %d columns, dataset has %d", len(rows[0]), want),
		})
		return
	}
	prof := d.prof
	withStats := d.req.WithStats
	d.busy = true
	d.state = DatasetAppending
	d.mu.Unlock()

	j := s.newDatasetJob(d, timeout, func(ctx context.Context, opts core.Options, obs core.Observer) (*core.Result, *core.Report, error) {
		res, err := prof.AppendBatch(ctx, rows, obs)
		if err != nil {
			return res, nil, err
		}
		report := core.NewReport(prof.Relation(), res, withStats)
		d.mu.Lock()
		d.report = report
		d.version = prof.Version() + 1
		d.mu.Unlock()
		if err := s.checkpointDataset(d, prof, report); err != nil {
			return res, nil, err
		}
		return res, report, nil
	})

	// The admit record carries the batch rows themselves: recovery replays
	// applied batches into the reloaded relation before resuming the
	// checkpoint snapshot on top.
	if _, ok := s.enqueueJob(w, j, &walRecord{Type: recDSJob, Job: j.id, Dataset: d.id, Kind: dsJobBatch, Rows: rows}); !ok {
		d.abandon(DatasetReady)
		return
	}
	s.metrics.datasetBatches.Add(1)
	s.logf("dataset %s batch queued: job %s rows=%d", d.id, j.id, len(rows))
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, d.view())
}

// handleGetDataset implements GET /v1/datasets/{id}.
func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookupDataset(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown dataset"})
		return
	}
	writeJSON(w, http.StatusOK, d.view())
}

// handleListDatasets implements GET /v1/datasets.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.dsOrder...)
	ds := make([]*dataset, 0, len(ids))
	for _, id := range ids {
		ds = append(ds, s.datasets[id])
	}
	s.mu.Unlock()
	views := make([]DatasetView, 0, len(ds))
	for _, d := range ds {
		views = append(views, d.view())
	}
	writeJSON(w, http.StatusOK, views)
}

// handleGetProfile implements GET /v1/datasets/{id}/profile: the last
// completed profile generation. It stays readable while a batch is folding
// in (the previous version is served) and after a failure (the last good
// version is served, with the failed state visible); before the initial
// profile completes there is nothing to serve yet — 409, retry after
// polling the dataset.
func (s *Server) handleGetProfile(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookupDataset(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown dataset"})
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.report == nil {
		writeJSON(w, http.StatusConflict, apiError{
			Error: fmt.Sprintf("dataset %s has no completed profile yet (state %s)", d.id, d.state),
		})
		return
	}
	writeJSON(w, http.StatusOK, DatasetProfileView{
		ID:      d.id,
		State:   d.state,
		Version: d.version,
		Report:  d.report,
	})
}

func (s *Server) lookupDataset(id string) (*dataset, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[id]
	return d, ok
}
