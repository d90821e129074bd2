package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"holistic/internal/bitset"
	"holistic/internal/core"
	"holistic/internal/faults"
	"holistic/internal/fd"
	"holistic/internal/ind"
	"holistic/internal/relation"
)

// The chaos suite arms the fault-injection points one by one and proves the
// containment contract at each: a triggered fault fails (at most) the job it
// hit, the daemon keeps serving, subsequent jobs succeed, and faults that only
// degrade a dependency (cache, worker pool) do not change discovered results.
// Faults are process-global, so these tests never run in parallel and always
// reset in cleanup.

// armFaults arms spec for the duration of the test.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	if err := faults.Configure(spec); err != nil {
		t.Fatalf("configure faults %q: %v", spec, err)
	}
	t.Cleanup(faults.Reset)
}

// jobEvents fetches the full (closed) event stream of a terminal job.
func jobEvents(t *testing.T, ts *httptest.Server, id string) []JobEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	var events []JobEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var e JobEvent
		if err := dec.Decode(&e); err != nil {
			if err != io.EOF {
				t.Fatalf("decode event: %v", err)
			}
			break
		}
		events = append(events, e)
	}
	return events
}

// healthStatus fetches /healthz and returns the reported status string.
func healthStatus(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	return body["status"]
}

// TestChaosReaderIOErrorContained proves a permanent reader fault fails only
// the job that hit it: the next submission of the same dataset succeeds and
// the daemon never stops answering.
func TestChaosReaderIOErrorContained(t *testing.T) {
	armFaults(t, "reader.io:error:1")
	_, ts := newTestServer(t, Config{Workers: 1})

	code, v := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	failed := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if failed.State != StateFailed || !strings.Contains(failed.Error, "injected fault") {
		t.Fatalf("job = %s (%s), want failed on the injected fault", failed.State, failed.Error)
	}

	// Fault budget exhausted: the identical submission now completes. The
	// failed run must not have poisoned the result cache.
	code, v2 := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("resubmit status = %d, want 202 (a failed job must not be cache-served)", code)
	}
	done := pollUntil(t, ts, v2.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateDone || done.Result == nil {
		t.Fatalf("resubmitted job = %s, want done with a result", done.State)
	}
	if got := healthStatus(t, ts); got != "ok" {
		t.Fatalf("health after contained fault = %q, want ok", got)
	}
}

// TestChaosTransientRetrySucceeds proves the bounded retry: a job hitting
// transient faults is re-run with backoff on its worker slot and eventually
// completes, with the retries visible in the event log and metrics.
func TestChaosTransientRetrySucceeds(t *testing.T) {
	armFaults(t, "reader.io:transient:2")
	_, ts := newTestServer(t, Config{Workers: 1, RetryAttempts: 2, RetryBackoff: time.Millisecond})

	code, v := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateDone {
		t.Fatalf("job = %s (%s), want done after transient retries", done.State, done.Error)
	}

	retries := 0
	for _, e := range jobEvents(t, ts, v.ID) {
		if e.Type == EventRetry {
			retries++
			if !strings.Contains(e.Error, "injected fault") {
				t.Fatalf("retry event error = %q, want the injected fault", e.Error)
			}
		}
	}
	if retries != 2 {
		t.Fatalf("retry events = %d, want 2", retries)
	}
	if got := metricValue(t, ts, "profiled_job_retries_total"); got != 2 {
		t.Fatalf("profiled_job_retries_total = %d, want 2", got)
	}
}

// TestChaosRetriesExhaustedFails proves the retry bound: a fault outlasting
// the retry budget fails the job instead of looping forever.
func TestChaosRetriesExhaustedFails(t *testing.T) {
	armFaults(t, "reader.io:transient")
	_, ts := newTestServer(t, Config{Workers: 1, RetryAttempts: 1, RetryBackoff: time.Millisecond})

	_, v := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateFailed || !strings.Contains(done.Error, "injected fault") {
		t.Fatalf("job = %s (%s), want failed after exhausting retries", done.State, done.Error)
	}
	if got := metricValue(t, ts, "profiled_job_retries_total"); got != 1 {
		t.Fatalf("profiled_job_retries_total = %d, want 1", got)
	}
}

// TestChaosPanicIsolatedWithStack proves panic isolation end to end: a panic
// injected deep inside a PLI intersection fails the job with the captured
// stack in the event log; the worker pool, the daemon, and later jobs are
// untouched.
func TestChaosPanicIsolatedWithStack(t *testing.T) {
	armFaults(t, "pli.intersect:panic:1")
	_, ts := newTestServer(t, Config{Workers: 1})

	code, v := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	failed := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if failed.State != StateFailed || !strings.Contains(failed.Error, "panicked") {
		t.Fatalf("job = %s (%s), want failed on a recovered panic", failed.State, failed.Error)
	}

	var panics int
	for _, e := range jobEvents(t, ts, v.ID) {
		if e.Type == EventPanic {
			panics++
			if !strings.Contains(e.Stack, "holistic/internal") {
				t.Fatalf("panic event stack does not look like a stack trace:\n%s", e.Stack)
			}
		}
	}
	if panics != 1 {
		t.Fatalf("panic events = %d, want 1", panics)
	}
	if got := metricValue(t, ts, "profiled_panics_total"); got != 1 {
		t.Fatalf("profiled_panics_total = %d, want 1", got)
	}

	// The daemon survived: the same dataset profiles cleanly now.
	_, v2 := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	done := pollUntil(t, ts, v2.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateDone {
		t.Fatalf("post-panic job = %s (%s), want done", done.State, done.Error)
	}
}

// TestChaosWatchdogDegradesAndRecovers drives the health watchdog: repeated
// consecutive panic-failures flip /healthz to degraded, one clean completion
// flips it back.
func TestChaosWatchdogDegradesAndRecovers(t *testing.T) {
	// BreakerThreshold is raised above the panic budget: the three failures
	// all hit one (dataset, algorithm) key, and the default threshold would
	// open its circuit breaker before the recovery submission — this test
	// wants the watchdog's verdict alone.
	armFaults(t, "pli.intersect:panic:3")
	_, ts := newTestServer(t, Config{Workers: 1, BreakerThreshold: 10})

	for i := 0; i < 3; i++ {
		_, v := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
		done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
		if done.State != StateFailed {
			t.Fatalf("job %d = %s, want failed", i, done.State)
		}
	}
	if got := healthStatus(t, ts); got != "degraded" {
		t.Fatalf("health after 3 consecutive panics = %q, want degraded", got)
	}
	if got := metricValue(t, ts, "profiled_degraded"); got != 1 {
		t.Fatalf("profiled_degraded = %d, want 1", got)
	}

	// Budget exhausted: a clean run resets the watchdog.
	_, v := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateDone {
		t.Fatalf("recovery job = %s (%s), want done", done.State, done.Error)
	}
	if got := healthStatus(t, ts); got != "ok" {
		t.Fatalf("health after recovery = %q, want ok", got)
	}
	if got := metricValue(t, ts, "profiled_degraded"); got != 0 {
		t.Fatalf("profiled_degraded after recovery = %d, want 0", got)
	}
}

// TestChaosCacheFaultsPreserveResults proves graceful degradation of the PLI
// cache: with every cache probe failing (gets degrade to misses, puts are
// dropped) the discovered IND/UCC/FD sets are identical to a clean run — the
// governor trades time, never correctness.
func TestChaosCacheFaultsPreserveResults(t *testing.T) {
	_, clean := newTestServer(t, Config{Workers: 1})
	_, v := submit(t, clean, fmt.Sprintf(`{"csv": %q}`, testCSV))
	want := pollUntil(t, clean, v.ID, func(v JobView) bool { return terminal(v.State) })
	if want.State != StateDone {
		t.Fatalf("clean job = %s, want done", want.State)
	}

	armFaults(t, "cache.get:error,cache.put:error")
	_, ts := newTestServer(t, Config{Workers: 1})
	_, v2 := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	got := pollUntil(t, ts, v2.ID, func(v JobView) bool { return terminal(v.State) })
	if got.State != StateDone {
		t.Fatalf("degraded job = %s (%s), want done", got.State, got.Error)
	}
	assertSameFindings(t, want, got)
}

// TestChaosWorkerSpawnDegradesToSequential proves the pool fault: with
// fan-out unavailable, a many-worker job silently runs sequentially and
// produces identical results.
func TestChaosWorkerSpawnDegradesToSequential(t *testing.T) {
	_, clean := newTestServer(t, Config{Workers: 1})
	_, v := submit(t, clean, fmt.Sprintf(`{"csv": %q, "workers": 1}`, testCSV))
	want := pollUntil(t, clean, v.ID, func(v JobView) bool { return terminal(v.State) })

	armFaults(t, "worker.spawn:error")
	_, ts := newTestServer(t, Config{Workers: 1})
	_, v2 := submit(t, ts, fmt.Sprintf(`{"csv": %q, "workers": 8}`, testCSV))
	got := pollUntil(t, ts, v2.ID, func(v JobView) bool { return terminal(v.State) })
	if got.State != StateDone {
		t.Fatalf("degraded job = %s (%s), want done", got.State, got.Error)
	}
	assertSameFindings(t, want, got)
}

// TestChaosEnqueueFault503 proves the admission fault surfaces as a
// structured 503 with a retry hint — not a hung client or a dead daemon —
// and the very next submission is admitted.
func TestChaosEnqueueFault503(t *testing.T) {
	armFaults(t, "server.enqueue:error:1")
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"csv": %q}`, testCSV)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After header")
	}

	code, v := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("post-fault submit status = %d, want 202", code)
	}
	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StateDone {
		t.Fatalf("post-fault job = %s, want done", done.State)
	}
}

// --- anytime partial results ---

var registerPartialOnce sync.Once

// registerPartialStrategy installs a strategy that confirms a few
// dependencies immediately and then parks until its context dies — the
// shape of a real anytime run cut by its deadline.
func registerPartialStrategy() {
	registerPartialOnce.Do(func() {
		core.Register(partialStrategy{})
	})
}

type partialStrategy struct{}

func (partialStrategy) Name() string { return "partialtest" }

func (partialStrategy) Profile(ctx context.Context, rel *relation.Relation, opts core.Options, obs core.Observer) (*core.Result, error) {
	res := &core.Result{
		INDs: []ind.IND{{Dependent: 1, Referenced: 2}},
		UCCs: []bitset.Set{bitset.New(0)},
		FDs:  []fd.FD{{LHS: bitset.New(1), RHS: 2}},
	}
	obs.PhaseStart("confirm")
	obs.PhaseEnd("confirm", 0)
	<-ctx.Done()
	return res, ctx.Err()
}

// TestJobDeadlinePartialResult proves the 206-style outcome: a job with
// confirmed findings that hits its deadline finishes as "partial" with the
// anytime report attached (marked partial, completeness included) — and the
// partial report never enters the result cache.
func TestJobDeadlinePartialResult(t *testing.T) {
	registerPartialStrategy()
	_, ts := newTestServer(t, Config{Workers: 1})

	code, v := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "partialtest", "timeout_seconds": 0.05}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	done := pollUntil(t, ts, v.ID, func(v JobView) bool { return terminal(v.State) })
	if done.State != StatePartial {
		t.Fatalf("job = %s (%s), want partial", done.State, done.Error)
	}
	if !strings.Contains(done.Error, "deadline") {
		t.Fatalf("partial job error = %q, want a deadline message", done.Error)
	}
	if done.Result == nil || !done.Result.Partial {
		t.Fatal("partial job must carry a report marked partial")
	}
	if len(done.Result.INDs) != 1 || len(done.Result.UCCs) != 1 || len(done.Result.FDs) != 1 {
		t.Fatalf("partial report findings = %d/%d/%d INDs/UCCs/FDs, want 1/1/1",
			len(done.Result.INDs), len(done.Result.UCCs), len(done.Result.FDs))
	}
	if done.Result.Completeness == nil {
		t.Fatal("partial report must include completeness markers")
	}
	if got := metricValue(t, ts, "profiled_jobs_partial_total"); got != 1 {
		t.Fatalf("profiled_jobs_partial_total = %d, want 1", got)
	}

	// The identical submission must re-profile, not replay the partial
	// report from the cache.
	_, v2 := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "partialtest", "timeout_seconds": 0.05}`, testCSV))
	again := pollUntil(t, ts, v2.ID, func(v JobView) bool { return terminal(v.State) })
	if again.CacheHit {
		t.Fatal("partial report was served from the result cache")
	}
	if again.State != StatePartial {
		t.Fatalf("resubmitted job = %s, want partial (re-profiled)", again.State)
	}
}

// TestChaosWorkersEquivalenceUnderCacheFaults is the cross-cutting
// determinism check: even with cache faults firing, workers=1 and workers=N
// discover identical dependency sets.
func TestChaosWorkersEquivalenceUnderCacheFaults(t *testing.T) {
	armFaults(t, "cache.get:error")
	_, ts := newTestServer(t, Config{Workers: 2})

	// workers/seed are excluded from the cache key, so the second job would
	// be served from the first one's report and the equivalence would be
	// vacuous; max_rows IS part of the key, and 4 reads all of testCSV's
	// data rows anyway — distinct keys, identical effective input.
	_, seq := submit(t, ts, fmt.Sprintf(`{"csv": %q, "workers": 1}`, testCSV))
	_, par := submit(t, ts, fmt.Sprintf(`{"csv": %q, "workers": 8, "seed": 7, "max_rows": 4}`, testCSV))
	a := pollUntil(t, ts, seq.ID, func(v JobView) bool { return terminal(v.State) })
	b := pollUntil(t, ts, par.ID, func(v JobView) bool { return terminal(v.State) })
	if a.State != StateDone || b.State != StateDone {
		t.Fatalf("jobs = %s/%s, want done/done", a.State, b.State)
	}
	if b.CacheHit {
		t.Fatal("second job was cache-served; equivalence not exercised")
	}
	assertSameFindings(t, a, b)
}

// assertSameFindings compares the dependency sets of two job reports.
func assertSameFindings(t *testing.T, a, b JobView) {
	t.Helper()
	if a.Result == nil || b.Result == nil {
		t.Fatal("both jobs must carry reports")
	}
	if !reflect.DeepEqual(a.Result.INDs, b.Result.INDs) {
		t.Errorf("INDs differ: %v vs %v", a.Result.INDs, b.Result.INDs)
	}
	if !reflect.DeepEqual(a.Result.UCCs, b.Result.UCCs) {
		t.Errorf("UCCs differ: %v vs %v", a.Result.UCCs, b.Result.UCCs)
	}
	if !reflect.DeepEqual(a.Result.FDs, b.Result.FDs) {
		t.Errorf("FDs differ: %v vs %v", a.Result.FDs, b.Result.FDs)
	}
}
