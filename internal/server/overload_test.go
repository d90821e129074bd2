package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"holistic/internal/core"
	"holistic/internal/relation"
)

// The overload suite proves the resilience layer end to end: deadline-aware
// admission rejects doomed work with an honest Retry-After, a job's deadline
// counts from admission so queue wait spends it, idempotency keys collapse
// concurrent and post-crash retries onto one job, circuit breakers fast-fail
// repeatedly failing (dataset, algorithm) pairs, and the memory governor
// degrades or refuses work above its watermarks.

// sleepFor is the service time of the "sleeptest" strategy: long enough to
// build queues with a handful of jobs, short enough to keep the suite fast.
const sleepFor = 60 * time.Millisecond

// sleepStrategy runs for a fixed, known duration so tests can seed the
// admission controller's service-time estimate deterministically.
type sleepStrategy struct{}

func (sleepStrategy) Name() string { return "sleeptest" }

func (sleepStrategy) Profile(ctx context.Context, rel *relation.Relation, opts core.Options, obs core.Observer) (*core.Result, error) {
	select {
	case <-time.After(sleepFor):
		return &core.Result{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// failMode toggles the "failtest" strategy between failing and succeeding,
// so one test can trip a circuit breaker and then let its trial probe pass.
var failMode atomic.Bool

type failStrategy struct{}

func (failStrategy) Name() string { return "failtest" }

func (failStrategy) Profile(ctx context.Context, rel *relation.Relation, opts core.Options, obs core.Observer) (*core.Result, error) {
	if failMode.Load() {
		return nil, errors.New("failtest: induced failure")
	}
	return &core.Result{}, nil
}

var registerOverloadOnce sync.Once

func registerOverloadStrategies() {
	registerOverloadOnce.Do(func() {
		core.Register(sleepStrategy{})
		core.Register(failStrategy{})
	})
}

// submitWith posts body to /v1/jobs with extra headers and returns the
// response (status, headers) plus the decoded job view for 200/202.
func submitWith(t *testing.T, ts *httptest.Server, body string, hdr map[string]string) (*http.Response, JobView, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("decode submit response %q: %v", data, err)
		}
	}
	return resp, v, string(data)
}

// retryAfterHeader parses the Retry-After header and fails the test when it
// is missing or outside the documented [1, 60] second clamp.
func retryAfterHeader(t *testing.T, resp *http.Response) int {
	t.Helper()
	raw := resp.Header.Get("Retry-After")
	if raw == "" {
		t.Fatalf("status %d response missing Retry-After", resp.StatusCode)
	}
	secs, err := strconv.Atoi(raw)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", raw, err)
	}
	if secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %d, want within [1, 60]", secs)
	}
	return secs
}

// TestAdaptiveAdmissionRejectsDoomed seeds the service-time estimator with a
// real run, parks the only worker, queues work behind it, and then submits a
// job whose deadline the controller must predict as unreachable: the answer
// is an immediate 429 with a computed Retry-After, not a 202 followed by a
// deadline failure.
func TestAdaptiveAdmissionRejectsDoomed(t *testing.T) {
	registerOverloadStrategies()
	registerBlockStrategy()
	gate.reset()
	_, release := gate.channels()
	_, ts := newTestServer(t, Config{Workers: 1})

	// Seed: one completed sleeptest run teaches the controller its cost.
	_, seed, _ := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "sleeptest"}`, testCSV), nil)
	pollUntil(t, ts, seed.ID, func(v JobView) bool { return v.State == StateDone })

	// Park the worker and build a queue of three known-cost jobs.
	resp, _, _ := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocktest submit status = %d, want 202", resp.StatusCode)
	}
	started, _ := gate.channels()
	<-started
	for i := 0; i < 3; i++ {
		resp, _, body := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "sleeptest", "max_rows": %d}`, testCSV, i+1), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("filler submit %d status = %d (%s), want 202", i, resp.StatusCode, body)
		}
	}

	// Predicted completion: ~3 queued * 60ms + 60ms service, far beyond a
	// 100ms deadline plus slack. Must be refused at admission.
	resp, _, body := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "sleeptest", "timeout_seconds": 0.1, "distinct_nulls": true}`, testCSV), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("doomed submit status = %d (%s), want 429", resp.StatusCode, body)
	}
	retryAfterHeader(t, resp)
	if !strings.Contains(body, "deadline") {
		t.Fatalf("429 body %q does not explain the predicted deadline miss", body)
	}
	if got := metricValue(t, ts, `profiled_admission_rejections_total{reason="predicted_deadline"}`); got != 1 {
		t.Fatalf("predicted_deadline rejections = %d, want 1", got)
	}

	// A generous deadline sails through the same queue state (max_rows keeps
	// the cache key distinct from the seed run).
	resp, ok, _ := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "sleeptest", "timeout_seconds": 30, "max_rows": 9}`, testCSV), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("generous-deadline submit status = %d, want 202", resp.StatusCode)
	}
	close(release)
	pollUntil(t, ts, ok.ID, func(v JobView) bool { return terminal(v.State) })
}

// TestAdmissionEstimateFaultPoint drives the rejection path deterministically:
// with admission.estimate armed the estimator reports an unbounded service
// time, so any deadline-carrying submission is refused regardless of history.
func TestAdmissionEstimateFaultPoint(t *testing.T) {
	armFaults(t, "admission.estimate:error")
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, _, body := submitWith(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit status = %d (%s), want 429", resp.StatusCode, body)
	}
	retryAfterHeader(t, resp)
	if got := metricValue(t, ts, `profiled_admission_rejections_total{reason="predicted_deadline"}`); got != 1 {
		t.Fatalf("predicted_deadline rejections = %d, want 1", got)
	}
}

// TestDeadlineFromAdmissionQueuedThenRun proves a job's deadline counts from
// admission, not from the moment a worker picks it up: a job that waits most
// of its deadline in the queue gets only the rest of it to run. Its 60ms run
// cannot fit the ~40ms left, so it must end on its deadline — not run to
// completion on a fresh full timeout.
func TestDeadlineFromAdmissionQueuedThenRun(t *testing.T) {
	registerOverloadStrategies()
	registerBlockStrategy()
	gate.reset()
	_, release := gate.channels()
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, _, _ := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocktest submit status = %d, want 202", resp.StatusCode)
	}
	started, _ := gate.channels()
	<-started

	const deadline = 200 * time.Millisecond
	resp, v, body := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "sleeptest", "timeout_seconds": %g}`, testCSV, deadline.Seconds()), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadline submit status = %d (%s), want 202", resp.StatusCode, body)
	}
	// Any dequeue between 140ms and 200ms after admission leaves less than
	// sleepFor of the deadline: the run must start, then hit the deadline.
	time.Sleep(160 * time.Millisecond)
	close(release)

	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateFailed && done.State != StatePartial {
		t.Fatalf("job = %s (%s), want failed or partial on its deadline", done.State, done.Error)
	}
	if !strings.Contains(done.Error, "deadline") {
		t.Fatalf("job error %q, want a deadline error", done.Error)
	}
	if done.StartedAt == nil {
		t.Fatalf("job never started (%s); it should have run for the rest of its deadline", done.Error)
	}
	const margin = 50 * time.Millisecond
	if took := done.FinishedAt.Sub(done.SubmittedAt); took > deadline+margin {
		t.Fatalf("job finished %v after admission, want within its %v deadline (+%v)", took, deadline, margin)
	}
}

// TestDeadlineFromAdmissionLapsesInQueue proves the dequeue-time side of the
// same rule: a job whose whole deadline lapsed while it waited fails without
// ever running, and is counted as doomed in the queue.
func TestDeadlineFromAdmissionLapsesInQueue(t *testing.T) {
	registerOverloadStrategies()
	registerBlockStrategy()
	gate.reset()
	_, release := gate.channels()
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, _, _ := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocktest submit status = %d, want 202", resp.StatusCode)
	}
	started, _ := gate.channels()
	<-started

	resp, v, body := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "sleeptest", "timeout_seconds": 0.05}`, testCSV), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deadline submit status = %d (%s), want 202", resp.StatusCode, body)
	}
	time.Sleep(100 * time.Millisecond)
	close(release)

	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateFailed || !strings.Contains(done.Error, "in queue") {
		t.Fatalf("job = %s (%s), want failed with its deadline lapsed in queue", done.State, done.Error)
	}
	if done.StartedAt != nil {
		t.Fatalf("doomed job has started_at %v, want none", done.StartedAt)
	}
	for _, e := range jobEvents(t, ts, v.ID) {
		if e.Type == EventState && e.State == StateRunning {
			t.Fatal("doomed job emitted a running transition")
		}
	}
	if got := metricValue(t, ts, "profiled_jobs_doomed_in_queue_total"); got != 1 {
		t.Fatalf("profiled_jobs_doomed_in_queue_total = %d, want 1", got)
	}
}

// TestIdempotentConcurrentSubmissions hammers one idempotency key from many
// goroutines: exactly one job may execute; every other submission must replay
// it — same ID, replay header, no duplicate work.
func TestIdempotentConcurrentSubmissions(t *testing.T) {
	registerOverloadStrategies()
	_, ts := newTestServer(t, Config{Workers: 2})

	const n = 16
	body := fmt.Sprintf(`{"csv": %q, "algorithm": "sleeptest"}`, testCSV)
	var wg sync.WaitGroup
	idsCh := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, v, raw := submitWith(t, ts, body, map[string]string{"Idempotency-Key": "stress-key"})
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit status = %d (%s)", resp.StatusCode, raw)
				return
			}
			idsCh <- v.ID
		}()
	}
	wg.Wait()
	close(idsCh)

	distinct := map[string]bool{}
	for id := range idsCh {
		distinct[id] = true
	}
	if len(distinct) != 1 {
		t.Fatalf("distinct job IDs = %d (%v), want exactly 1", len(distinct), distinct)
	}
	var id string
	for k := range distinct {
		id = k
	}
	done := pollUntil(t, ts, id, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateDone {
		t.Fatalf("deduped job = %s (%s), want done", done.State, done.Error)
	}
	if done.IdemKey != "stress-key" {
		t.Fatalf("job idempotency key = %q, want %q", done.IdemKey, "stress-key")
	}
	if got := metricValue(t, ts, "profiled_jobs_submitted_total"); got != 1 {
		t.Fatalf("jobs submitted = %d, want 1 (duplicates must not execute)", got)
	}
	if got := metricValue(t, ts, "profiled_idempotent_replays_total"); got != n-1 {
		t.Fatalf("idempotent replays = %d, want %d", got, n-1)
	}

	// A terminal replay answers 200 with the replay marker.
	resp, v, _ := submitWith(t, ts, body, map[string]string{"Idempotency-Key": "stress-key"})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Idempotent-Replay") != "true" || v.ID != id {
		t.Fatalf("post-terminal replay: status=%d replay=%q id=%q, want 200/true/%s",
			resp.StatusCode, resp.Header.Get("Idempotent-Replay"), v.ID, id)
	}
}

// TestIdempotencyKeyTooLong rejects oversized keys: they are journaled with
// every admission, so unbounded ones would be a WAL-bloat vector.
func TestIdempotencyKeyTooLong(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, _, body := submitWith(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV),
		map[string]string{"Idempotency-Key": strings.Repeat("k", maxIdempotencyKeyLen+1)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized key status = %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestRestartIdempotentDedup proves dedup survives a kill -9: keys journaled
// with their admissions are rebuilt on recovery, so a client retrying a
// pre-crash submission gets the original job back — terminal record or
// replayed in-flight job — never a duplicate execution.
func TestRestartIdempotentDedup(t *testing.T) {
	registerOverloadStrategies()
	registerBlockStrategy()
	gate.reset()
	_, release := gate.channels()
	dir := t.TempDir()
	cfg := Config{Workers: 1, StateDir: dir}

	s1, _, ts1 := openTestServer(t, cfg)
	respA, jobA, _ := submitWith(t, ts1, fmt.Sprintf(`{"csv": %q, "idempotency_key": "key-done"}`, testCSV), nil)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", respA.StatusCode)
	}
	pollUntil(t, ts1, jobA.ID, func(v JobView) bool { return v.State == StateDone })

	// A second job is mid-run when the process dies.
	respB, jobB, _ := submitWith(t, ts1, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest", "idempotency_key": "key-inflight"}`, testCSV), nil)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("in-flight submit status = %d, want 202", respB.StatusCode)
	}
	started, _ := gate.channels()
	<-started
	crash(t, s1, ts1)

	_, stats, ts2 := openTestServer(t, cfg)
	if stats.ReplayedJobs != 1 {
		t.Fatalf("replayed jobs = %d, want 1", stats.ReplayedJobs)
	}

	// Retry of the completed submission: same ID, replayed, no new job.
	resp, v, _ := submitWith(t, ts2, fmt.Sprintf(`{"csv": %q, "idempotency_key": "key-done"}`, testCSV), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Idempotent-Replay") != "true" {
		t.Fatalf("post-crash replay: status=%d replay=%q, want 200/true",
			resp.StatusCode, resp.Header.Get("Idempotent-Replay"))
	}
	if v.ID != jobA.ID || v.State != StateDone {
		t.Fatalf("post-crash replay = %s (%s), want %s done", v.ID, v.State, jobA.ID)
	}

	// Retry of the interrupted submission dedups onto the replayed job.
	resp, v, _ = submitWith(t, ts2, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest", "idempotency_key": "key-inflight"}`, testCSV), nil)
	if resp.Header.Get("Idempotent-Replay") != "true" || v.ID != jobB.ID {
		t.Fatalf("in-flight replay: replay=%q id=%q, want true/%s",
			resp.Header.Get("Idempotent-Replay"), v.ID, jobB.ID)
	}
	if got := metricValue(t, ts2, "profiled_jobs_submitted_total"); got != 0 {
		t.Fatalf("jobs submitted after restart = %d, want 0 (both retries must dedup)", got)
	}

	close(release)
	pollUntil(t, ts2, jobB.ID, func(v JobView) bool { return terminal(v.State) })
}

// TestCircuitBreaker trips a per-(dataset, algorithm) breaker with repeated
// failures, verifies the fast-fail contract (422, prior error, Retry-After),
// per-key isolation, the half-open trial after cooldown, and recovery.
func TestCircuitBreaker(t *testing.T) {
	registerOverloadStrategies()
	failMode.Store(true)
	t.Cleanup(func() { failMode.Store(false) })
	_, ts := newTestServer(t, Config{Workers: 1, BreakerThreshold: 2, BreakerCooldown: 200 * time.Millisecond})

	badBody := fmt.Sprintf(`{"csv": %q, "algorithm": "failtest"}`, testCSV)
	for i := 0; i < 2; i++ {
		resp, v, _ := submitWith(t, ts, badBody, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("failing submit %d status = %d, want 202", i, resp.StatusCode)
		}
		done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
		if done.State != StateFailed {
			t.Fatalf("failing job %d = %s, want failed", i, done.State)
		}
	}
	if got := metricValue(t, ts, "profiled_breaker_trips_total"); got != 1 {
		t.Fatalf("breaker trips = %d, want 1", got)
	}

	// Open: the same key fast-fails with the prior error attached.
	resp, _, body := submitWith(t, ts, badBody, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("open-breaker submit status = %d (%s), want 422", resp.StatusCode, body)
	}
	retryAfterHeader(t, resp)
	if !strings.Contains(body, "induced failure") {
		t.Fatalf("422 body %q does not carry the error that tripped the breaker", body)
	}
	if got := metricValue(t, ts, "profiled_breaker_fast_fails_total"); got != 1 {
		t.Fatalf("breaker fast fails = %d, want 1", got)
	}
	if got := metricValue(t, ts, "profiled_breakers_open"); got != 1 {
		t.Fatalf("open breakers gauge = %d, want 1", got)
	}
	if got := healthStatus(t, ts); got != "degraded" {
		t.Fatalf("health with an open breaker = %q, want degraded", got)
	}
	if got := metricValue(t, ts, "profiled_degraded"); got != 1 {
		t.Fatalf("profiled_degraded with an open breaker = %d, want 1", got)
	}

	// Per-key isolation: a different dataset (different SHA) is untouched.
	failMode.Store(false)
	resp, other, _ := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "failtest"}`, testCSV+"5,10115,Berlin\n"), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other-dataset submit status = %d, want 422-free admission", resp.StatusCode)
	}
	pollUntil(t, ts, other.ID, func(v JobView) bool { return v.State == StateDone })

	// Past cooldown the breaker half-opens: one trial probe runs, succeeds,
	// and closes the breaker.
	time.Sleep(250 * time.Millisecond)
	resp, trial, _ := submitWith(t, ts, badBody, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("trial submit status = %d, want 202", resp.StatusCode)
	}
	done := pollUntil(t, ts, trial.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateDone {
		t.Fatalf("trial job = %s (%s), want done", done.State, done.Error)
	}
	if got := metricValue(t, ts, "profiled_breakers_open"); got != 0 {
		t.Fatalf("open breakers after recovery = %d, want 0", got)
	}
	if got := healthStatus(t, ts); got != "ok" {
		t.Fatalf("health after breaker close = %q, want ok", got)
	}
	if got := metricValue(t, ts, "profiled_degraded"); got != 0 {
		t.Fatalf("profiled_degraded after breaker close = %d, want 0", got)
	}
}

// TestMemWatermarkSoftDegrades proves the soft watermark: armed via the
// mem.watermark fault (transient = soft), new jobs run degraded — flagged on
// the job view — and the level gauge reports 1.
func TestMemWatermarkSoftDegrades(t *testing.T) {
	armFaults(t, "mem.watermark:transient")
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, v, _ := submitWith(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateDone {
		t.Fatalf("degraded job = %s (%s), want done", done.State, done.Error)
	}
	if !done.Degraded {
		t.Fatal("job admitted above the soft watermark is not flagged degraded")
	}
	if got := metricValue(t, ts, "profiled_mem_watermark_level"); got != 1 {
		t.Fatalf("watermark level gauge = %d, want 1 (soft)", got)
	}
}

// TestMemWatermarkHardRefusesLarge proves the hard watermark: large
// submissions get 503 with a Retry-After, small ones still run (degraded),
// and /healthz and the degraded gauge both report the pressure.
func TestMemWatermarkHardRefusesLarge(t *testing.T) {
	armFaults(t, "mem.watermark:error")
	_, ts := newTestServer(t, Config{Workers: 1})

	// A generated CSV just past the large-job threshold.
	var big strings.Builder
	big.WriteString("id,v\n")
	for i := 0; big.Len() < largeJobBytes; i++ {
		fmt.Fprintf(&big, "%d,value-%d\n", i, i%97)
	}
	resp, _, body := submitWith(t, ts, fmt.Sprintf(`{"csv": %q}`, big.String()), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("large submit status = %d (%s), want 503", resp.StatusCode, body)
	}
	retryAfterHeader(t, resp)
	if !strings.Contains(body, "memory pressure") {
		t.Fatalf("503 body %q does not explain the memory pressure", body)
	}
	if got := metricValue(t, ts, `profiled_admission_rejections_total{reason="mem_pressure"}`); got != 1 {
		t.Fatalf("mem_pressure rejections = %d, want 1", got)
	}
	if got := metricValue(t, ts, "profiled_mem_watermark_level"); got != 2 {
		t.Fatalf("watermark level gauge = %d, want 2 (hard)", got)
	}
	if got := healthStatus(t, ts); got != "degraded" {
		t.Fatalf("health above the hard watermark = %q, want degraded", got)
	}
	if got := metricValue(t, ts, "profiled_degraded"); got != 1 {
		t.Fatalf("profiled_degraded above the hard watermark = %d, want 1", got)
	}

	// A small submission is still served, degraded.
	resp, v, _ := submitWith(t, ts, `{"csv": "a,b\n1,2\n"}`, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("small submit status = %d, want 202", resp.StatusCode)
	}
	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateDone || !done.Degraded {
		t.Fatalf("small job = %s degraded=%v, want done and degraded", done.State, done.Degraded)
	}
}

// TestOverloadFloodBoundedAndLossless floods a small server far past
// saturation and checks the overload invariants: every submission gets a
// prompt, definitive answer (bounded admission latency), every rejection
// carries a clamped Retry-After, every accepted job reaches a terminal state
// under its original ID, and no job is duplicated or forgotten.
func TestOverloadFloodBoundedAndLossless(t *testing.T) {
	registerOverloadStrategies()
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8})

	const n = 80
	type outcome struct {
		code    int
		id      string
		latency time.Duration
	}
	results := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Unique bytes per submission: no result-cache or idempotency
			// short-circuits, every acceptance is real queued work.
			body := fmt.Sprintf(`{"csv": "id,v\n%d,x\n", "algorithm": "sleeptest", "idempotency_key": "flood-%d"}`, i, i)
			startAt := time.Now()
			resp, v, _ := submitWith(t, ts, body, nil)
			results[i] = outcome{code: resp.StatusCode, id: v.ID, latency: time.Since(startAt)}
			if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
				retryAfterHeader(t, resp)
			}
		}(i)
	}
	wg.Wait()

	var accepted []string
	rejected := 0
	latencies := make([]time.Duration, 0, n)
	for _, r := range results {
		latencies = append(latencies, r.latency)
		switch r.code {
		case http.StatusAccepted:
			accepted = append(accepted, r.id)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("unexpected submit status %d", r.code)
		}
	}
	if len(accepted)+rejected != n {
		t.Fatalf("accepted %d + rejected %d != %d submissions", len(accepted), rejected, n)
	}
	if rejected == 0 {
		t.Fatalf("flood of %d against queue depth 8 produced no rejections", n)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if p99 := latencies[len(latencies)*99/100]; p99 > 2*time.Second {
		t.Fatalf("p99 admission latency = %v, want bounded under overload", p99)
	}

	// Zero lost, zero duplicated: every accepted ID is distinct and reaches
	// a terminal state.
	distinct := map[string]bool{}
	for _, id := range accepted {
		if distinct[id] {
			t.Fatalf("job ID %s handed out twice", id)
		}
		distinct[id] = true
		pollUntil(t, ts, id, func(v JobView) bool { return terminal(v.State) })
	}
	if got := metricValue(t, ts, "profiled_jobs_submitted_total"); got != int64(len(accepted)) {
		t.Fatalf("jobs submitted = %d, want %d (exactly the accepted set)", got, len(accepted))
	}

	// The queue-wait histogram saw every executed job.
	if got := metricValue(t, ts, "profiled_queue_wait_seconds_count"); got < int64(len(accepted))/2 {
		t.Fatalf("queue wait observations = %d, want at least half the accepted jobs", got)
	}
}
