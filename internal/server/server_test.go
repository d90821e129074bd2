package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"holistic/internal/core"
	"holistic/internal/relation"
)

// testCSV is a small dataset with known dependencies: zip → city (FD),
// id unique (UCC), city ⊆ name is false but id has no IND partners.
const testCSV = "id,zip,city\n1,10115,Berlin\n2,10115,Berlin\n3,14467,Potsdam\n4,69117,Heidelberg\n"

// --- blocking test strategy ---

// blockGate coordinates the "block" strategy: each job run signals started
// and then waits for a release or its context.
type blockGate struct {
	mu       sync.Mutex
	started  chan struct{}
	release  chan struct{}
	inflight int
}

var gate = &blockGate{
	started: make(chan struct{}, 64),
	release: make(chan struct{}),
}

// reset arms the gate for a new test.
func (g *blockGate) reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.started = make(chan struct{}, 64)
	g.release = make(chan struct{})
}

func (g *blockGate) channels() (chan struct{}, chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.started, g.release
}

var registerBlockOnce sync.Once

// registerBlockStrategy installs a strategy that parks until released or
// canceled, so tests can hold jobs in the running state deterministically.
func registerBlockStrategy() {
	registerBlockOnce.Do(func() {
		core.Register(blockStrategy{})
	})
}

type blockStrategy struct{}

func (blockStrategy) Name() string { return "blocktest" }

func (blockStrategy) Profile(ctx context.Context, rel *relation.Relation, opts core.Options, obs core.Observer) (*core.Result, error) {
	started, release := gate.channels()
	started <- struct{}{}
	select {
	case <-release:
		return &core.Result{}, nil
	case <-ctx.Done():
		return &core.Result{}, ctx.Err()
	}
}

// --- helpers ---

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (int, JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("submit response %q: %v", data, err)
		}
	}
	return resp.StatusCode, v
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("get job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get job %s: status %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return v
}

// pollUntil polls the job until pred holds or the deadline passes.
func pollUntil(t *testing.T, ts *httptest.Server, id string, pred func(JobView) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if pred(v) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the expected state", id)
	return JobView{}
}

func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			var v int64
			fmt.Sscanf(line[len(name)+1:], "%d", &v)
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// --- tests ---

// TestSubmitPollResult covers the submit → poll → result round-trip for the
// paper's holistic algorithm and the TANE comparison strategy.
func TestSubmitPollResult(t *testing.T) {
	for _, alg := range []string{core.StrategyMuds, core.StrategyTane} {
		t.Run(alg, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 2})
			code, v := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": %q}`, testCSV, alg))
			if code != http.StatusAccepted {
				t.Fatalf("submit status = %d, want 202", code)
			}
			if v.State != StateQueued || v.ID == "" {
				t.Fatalf("submit view = %+v, want queued with id", v)
			}
			done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
			if done.State != StateDone {
				t.Fatalf("job state = %s (%s), want done", done.State, done.Error)
			}
			if done.Result == nil {
				t.Fatal("done job has no result")
			}
			if done.Result.Algorithm != alg {
				t.Fatalf("result algorithm = %q, want %q", done.Result.Algorithm, alg)
			}
			// zip → city must be among the FDs for every strategy.
			found := false
			for _, f := range done.Result.FDs {
				if f.RHS == "city" && len(f.LHS) == 1 && f.LHS[0] == "zip" {
					found = true
				}
			}
			if !found {
				t.Fatalf("FDs %v missing zip → city", done.Result.FDs)
			}
			if alg == core.StrategyMuds {
				if len(done.Result.UCCs) == 0 {
					t.Fatal("muds result has no UCCs")
				}
				if len(done.Result.Cache) == 0 {
					t.Fatal("muds result has no PLI cache stats")
				}
			}
			if done.DatasetSHA == "" {
				t.Fatal("job has no dataset hash")
			}
		})
	}
}

// TestResultCacheHit verifies that a byte-identical second submission is
// served from the content-addressed cache: instant done state, cache_hit
// flag, and a bumped cache-hit counter.
func TestResultCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := fmt.Sprintf(`{"csv": %q}`, testCSV)

	code, first := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", code)
	}
	firstDone := pollUntil(t, ts, first.ID, func(v JobView) bool { return terminal(v.State) })
	if firstDone.State != StateDone {
		t.Fatalf("first job state = %s, want done", firstDone.State)
	}
	if hits := metricValue(t, ts, "profiled_result_cache_hits_total"); hits != 0 {
		t.Fatalf("cache hits before resubmission = %d, want 0", hits)
	}

	code, second := submit(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("second submit status = %d, want 200 (served from cache)", code)
	}
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("second submit = state %s cache_hit %v, want done/true", second.State, second.CacheHit)
	}
	if second.Result == nil {
		t.Fatal("cache-served job has no result")
	}
	if hits := metricValue(t, ts, "profiled_result_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	// The cached report is the first run's report, dependency for dependency.
	a, _ := json.Marshal(firstDone.Result)
	b, _ := json.Marshal(second.Result)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached result differs from original:\n%s\nvs\n%s", a, b)
	}

	// A different algorithm on the same bytes is a different key: no hit.
	code, third := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "tane"}`, testCSV))
	if code != http.StatusAccepted || third.CacheHit {
		t.Fatalf("different-algorithm submit = %d cache_hit %v, want 202/false", code, third.CacheHit)
	}
}

// TestCancelRunningJob verifies that DELETE on an in-flight job surfaces as
// a canceled terminal status.
func TestCancelRunningJob(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	_, ts := newTestServer(t, Config{Workers: 1})
	started, _ := gate.channels()

	code, v := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", resp.StatusCode)
	}

	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateCanceled {
		t.Fatalf("job state = %s, want canceled", done.State)
	}
	if c := metricValue(t, ts, "profiled_jobs_canceled_total"); c != 1 {
		t.Fatalf("canceled counter = %d, want 1", c)
	}
}

// TestCancelQueuedJob verifies that DELETE on a job still waiting in the
// queue cancels it without it ever running.
func TestCancelQueuedJob(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started, release := gate.channels()

	// Occupy the single worker, then queue a second job behind it.
	_, blocker := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV))
	<-started
	code, queued := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("queued submit status = %d, want 202", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200 (canceled before start)", resp.StatusCode)
	}
	if v := getJob(t, ts, queued.ID); v.State != StateCanceled {
		t.Fatalf("queued job state = %s, want canceled", v.State)
	}

	close(release) // let the blocker finish
	if v := pollUntil(t, ts, blocker.ID, func(v JobView) bool { return terminal(v.State) }); v.State != StateDone {
		t.Fatalf("blocker state = %s, want done", v.State)
	}
	// The canceled job must stay canceled — the worker skipped it.
	if v := getJob(t, ts, queued.ID); v.State != StateCanceled {
		t.Fatalf("queued job state after drain = %s, want canceled", v.State)
	}
}

// TestQueueSaturation verifies the admission limit: with the worker busy and
// the queue full, further submissions are rejected with 429.
func TestQueueSaturation(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started, release := gate.channels()
	defer close(release)

	// One running (pulled off the queue), one waiting: the queue is full.
	submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV))
	<-started
	if code, _ := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV)); code != http.StatusAccepted {
		t.Fatalf("second submit status = %d, want 202", code)
	}

	code, _ := submit(t, ts, fmt.Sprintf(`{"csv": %q, "dataset": "third"}`, testCSV))
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status = %d, want 429", code)
	}
	if c := metricValue(t, ts, "profiled_jobs_rejected_queue_full_total"); c != 1 {
		t.Fatalf("rejected counter = %d, want 1", c)
	}
}

// TestGracefulShutdownDrains verifies that Shutdown lets a running job
// finish when the drain deadline allows it, cancels queued jobs, and flips
// admission to 503.
func TestGracefulShutdownDrains(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started, release := gate.channels()

	_, running := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV))
	<-started
	_, waiting := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Admission must reject with 503 once draining (poll briefly: the flag
	// flips inside the Shutdown goroutine).
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := submit(t, ts, fmt.Sprintf(`{"csv": %q, "dataset": "late"}`, testCSV))
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission never flipped to 503")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The queued job is canceled by the drain, not run.
	if v := pollUntil(t, ts, waiting.ID, func(v JobView) bool { return terminal(v.State) }); v.State != StateCanceled {
		t.Fatalf("waiting job state = %s, want canceled", v.State)
	}

	close(release) // the in-flight job finishes inside the deadline
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown = %v, want clean drain", err)
	}
	if v := getJob(t, ts, running.ID); v.State != StateDone {
		t.Fatalf("drained job state = %s, want done", v.State)
	}

	// healthz reports draining after shutdown.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status = %d, want 503 while drained", resp.StatusCode)
	}
}

// TestShutdownDeadlineCancelsInflight verifies the forced half of shutdown:
// when the drain deadline passes, in-flight jobs are canceled via context.
func TestShutdownDeadlineCancelsInflight(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	s, ts := newTestServer(t, Config{Workers: 1})
	started, _ := gate.channels()

	_, v := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV))
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown = %v, want deadline exceeded", err)
	}
	if view := getJob(t, ts, v.ID); view.State != StateCanceled {
		t.Fatalf("forced job state = %s, want canceled", view.State)
	}
}

// TestEventStream verifies the live progress stream: a subscriber sees the
// lifecycle transitions and the engine's phase events as JSON lines, ending
// when the job completes.
func TestEventStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, v := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var events []JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e JobEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	// The queued transition is appended before the job reaches the queue,
	// so even a worker that picks it up at once cannot get ahead of it.
	if first := events[0]; first.Type != EventState || first.State != StateQueued {
		t.Fatalf("first event = %+v, want queued transition", first)
	}
	last := events[len(events)-1]
	if last.Type != EventState || last.State != StateDone {
		t.Fatalf("last event = %+v, want done transition", last)
	}
	sawPhase, sawCache := false, false
	for _, e := range events {
		if e.Type == core.EventPhaseEnd {
			sawPhase = true
		}
		if e.Type == core.EventCacheStats && e.Cache != nil {
			sawCache = true
		}
	}
	if !sawPhase || !sawCache {
		t.Fatalf("stream missing engine events (phase=%v cache=%v)", sawPhase, sawCache)
	}
}

// TestSubmitValidation covers the 400 paths.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"no dataset":        `{}`,
		"both csv and path": fmt.Sprintf(`{"csv": %q, "path": "x.csv"}`, testCSV),
		"unknown algorithm": fmt.Sprintf(`{"csv": %q, "algorithm": "nope"}`, testCSV),
		"bad separator":     fmt.Sprintf(`{"csv": %q, "separator": "ab"}`, testCSV),
		"path disabled":     `{"path": "x.csv"}`,
		"unknown field":     `{"csvv": "a\n1\n"}`,
		"negative timeout":  fmt.Sprintf(`{"csv": %q, "timeout_seconds": -1}`, testCSV),
	} {
		if code, _ := submit(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestJobDeadline verifies the per-job timeout: a job exceeding its deadline
// fails with a deadline error rather than running forever.
func TestJobDeadline(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	_, ts := newTestServer(t, Config{Workers: 1})
	code, v := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest", "timeout_seconds": 0.05}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateFailed || !strings.Contains(done.Error, "deadline") {
		t.Fatalf("job = %s (%s), want failed with deadline error", done.State, done.Error)
	}
}

// TestJobTimeoutResolution covers the one timeout rule that admission and
// crash replay share: the server default when a request sets none, clamped
// to MaxTimeout, while an explicit request above MaxTimeout is refused with
// 400 at admission instead of being clamped.
func TestJobTimeoutResolution(t *testing.T) {
	for _, c := range []struct {
		def, max  time.Duration
		requested float64
		want      time.Duration
	}{
		{def: time.Minute, want: time.Minute},
		{def: time.Minute, requested: 2, want: 2 * time.Second},
		{def: time.Minute, max: 10 * time.Second, want: 10 * time.Second},
		{def: time.Minute, max: 10 * time.Second, requested: 2, want: 2 * time.Second},
		{def: -1, want: 0},
		{def: -1, max: 10 * time.Second, want: 10 * time.Second},
	} {
		cfg := Config{DefaultTimeout: c.def, MaxTimeout: c.max}
		cfg.applyDefaults()
		if got := cfg.jobTimeout(c.requested); got != c.want {
			t.Errorf("default %v, max %v, requested %gs: timeout = %v, want %v", c.def, c.max, c.requested, got, c.want)
		}
	}

	_, ts := newTestServer(t, Config{Workers: 1, MaxTimeout: 10 * time.Second})
	if code, _ := submit(t, ts, fmt.Sprintf(`{"csv": %q, "timeout_seconds": 11}`, testCSV)); code != http.StatusBadRequest {
		t.Fatalf("timeout above the maximum: status = %d, want 400", code)
	}
}

// TestCLIServerReportParity locks the satellite contract: the JSON the
// server stores for a job is the same core.Report model the CLI's -format
// json emits, byte-identical up to the timing fields.
func TestCLIServerReportParity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, v := submit(t, ts, fmt.Sprintf(`{"csv": %q, "dataset": "parity"}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })

	rel, err := relation.ReadCSV("parity", strings.NewReader(testCSV), relation.CSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunRelationContext(context.Background(), core.StrategyMuds, rel, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	local := core.NewReport(rel, res, false)

	normalize := func(r *core.Report) *core.Report {
		c := *r
		c.Phases = nil
		c.TotalSeconds = 0
		c.Cache = nil // counters vary with phase scheduling, not content
		c.Checks = 0
		return &c
	}
	a, _ := json.Marshal(normalize(done.Result))
	b, _ := json.Marshal(normalize(local))
	if !bytes.Equal(a, b) {
		t.Fatalf("server report differs from library report:\n%s\nvs\n%s", a, b)
	}
}
