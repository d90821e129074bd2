package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The release suite covers the retention side of the job lifecycle: a
// terminal job record keeps its metadata, report and event log, and drops
// its input — the inline CSV, the memoised source with its relation, and the
// exec closure with a batch's rows — on every path that makes it terminal.

// watchCollection arms a finalizer on obj and returns a channel that closes
// once the collector has found obj unreachable.
func watchCollection[T any](obj *T) <-chan struct{} {
	collected := make(chan struct{})
	runtime.SetFinalizer(obj, func(*T) { close(collected) })
	return collected
}

// awaitCollected forces collections until collected closes, failing after a
// bounded wait.
func awaitCollected(t *testing.T, what string, collected <-chan struct{}) {
	t.Helper()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("%s never became collectable: something still reaches it after the job ended", what)
}

// assertNoInput fails if any retained job or dataset session still holds
// input it no longer needs: no record keeps a CSV, and no terminal record
// keeps a source or exec closure. Call it when no job admitted over POST
// /v1/jobs is still queued or running: such a job keeps its CSV until it
// ends (a dataset job, or one rebuilt by recovery, reads its bytes from its
// source alone).
func assertNoInput(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	datasets := make([]*dataset, 0, len(s.datasets))
	for _, d := range s.datasets {
		datasets = append(datasets, d)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		state, csv, src, exec := j.state, len(j.req.CSV), j.src != nil, j.exec != nil
		j.mu.Unlock()
		if csv != 0 || (terminal(state) && (src || exec)) {
			t.Errorf("job %s (%s) holds input: csv=%d bytes src=%v exec=%v", j.id, state, csv, src, exec)
		}
	}
	for _, d := range datasets {
		d.mu.Lock()
		csv := len(d.req.CSV)
		d.mu.Unlock()
		if csv != 0 {
			t.Errorf("dataset %s holds its %d-byte creation CSV", d.id, csv)
		}
	}
}

// listJobs fetches GET /v1/jobs.
func listJobs(t *testing.T, ts *httptest.Server) []JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("list jobs: %v", err)
	}
	defer resp.Body.Close()
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatalf("decode job list: %v", err)
	}
	return views
}

// assertReleased waits for job id's event stream to close (announce drops
// the input before it closes the stream), checks that the record holds no
// input, and checks that every read surface still answers with the job's
// metadata and outcome: the job view, its list entry and its event stream.
func assertReleased(t *testing.T, s *Server, ts *httptest.Server, id, wantState string) JobView {
	t.Helper()
	events := jobEvents(t, ts, id)
	if len(events) == 0 {
		t.Fatalf("job %s has no events", id)
	}
	last := events[len(events)-1]
	if last.Type != EventState || last.State != wantState {
		t.Fatalf("job %s events end with %+v, want a %s transition", id, last, wantState)
	}
	j, ok := s.lookup(id)
	if !ok {
		t.Fatalf("job %s is not retained", id)
	}
	j.mu.Lock()
	csv, src, exec := len(j.req.CSV), j.src != nil, j.exec != nil
	j.mu.Unlock()
	if csv != 0 || src || exec {
		t.Errorf("terminal job %s holds input: csv=%d bytes src=%v exec=%v", id, csv, src, exec)
	}

	v := getJob(t, ts, id)
	if v.State != wantState || v.Algorithm == "" || v.Dataset == "" || v.FinishedAt == nil {
		t.Errorf("job %s view lost its metadata: %+v", id, v)
	}
	if v.Error != last.Error {
		t.Errorf("job %s error %q, its terminal event says %q", id, v.Error, last.Error)
	}
	listed := false
	for _, lv := range listJobs(t, ts) {
		if lv.ID == id {
			listed = true
			want := v
			want.Result = nil
			if mustJSON(t, lv) != mustJSON(t, want) {
				t.Errorf("job %s list entry %s, want %s", id, mustJSON(t, lv), mustJSON(t, want))
			}
		}
	}
	if !listed {
		t.Errorf("job %s missing from the job list", id)
	}
	return v
}

// assertReplay resubmits body under key and expects the retained job v back
// unchanged: 200, the replay header, and the same JSON as GET /v1/jobs/{id}.
func assertReplay(t *testing.T, ts *httptest.Server, body, key string, v JobView) {
	t.Helper()
	resp, replay, raw := submitWith(t, ts, body, map[string]string{"Idempotency-Key": key})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Idempotent-Replay") != "true" {
		t.Fatalf("replay of %s: status %d replay=%q (%s), want 200 replay", key, resp.StatusCode, resp.Header.Get("Idempotent-Replay"), raw)
	}
	if got, want := mustJSON(t, replay), mustJSON(t, getJob(t, ts, v.ID)); got != want {
		t.Errorf("replay of %s answered %s, want %s", key, got, want)
	}
}

// queueBatch hands one row to d the way handleAppendBatch does once it has
// parsed the body, and returns a channel that closes once the collector has
// reclaimed the batch's rows.
func queueBatch(t *testing.T, s *Server, d *dataset, fields ...string) <-chan struct{} {
	t.Helper()
	rows := [][]string{fields}
	collected := watchCollection(&rows[0])
	rec := httptest.NewRecorder()
	s.appendBatch(rec, d, rows, 0)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("batch: status %d (%s), want 202", rec.Code, rec.Body)
	}
	return collected
}

// TestTerminalJobReleasesPayload drives every path that makes a job
// terminal and checks that the retained record drops its input while the
// job view, the job list, the event stream and idempotent replays answer
// as before. Finalizers prove that a plain job's relation and a batch's rows
// become collectable once their jobs end.
func TestTerminalJobReleasesPayload(t *testing.T) {
	registerBlockStrategy()
	registerPartialStrategy()
	registerOverloadStrategies()
	sum := sha256.Sum256([]byte(testCSV))
	sha := hex.EncodeToString(sum[:])
	body := func(extra string) string { return fmt.Sprintf(`{"csv": %q%s}`, testCSV, extra) }

	t.Run("done", func(t *testing.T) {
		gate.reset()
		started, release := gate.channels()
		s, ts := newTestServer(t, Config{Workers: 1})
		b := body(`, "algorithm": "blocktest"`)
		resp, v, raw := submitWith(t, ts, b, map[string]string{"Idempotency-Key": "k-done"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d (%s)", resp.StatusCode, raw)
		}
		<-started
		j, _ := s.lookup(v.ID)
		j.mu.Lock()
		collected := watchCollection(j.src.Relation())
		j.mu.Unlock()
		close(release)
		done := assertReleased(t, s, ts, v.ID, StateDone)
		if done.Result == nil || done.DatasetSHA != sha || done.Dataset != "inline" || done.IdemKey != "k-done" {
			t.Errorf("done job view = %+v, want its report, sha, dataset name and key", done)
		}
		assertReplay(t, ts, b, "k-done", done)
		awaitCollected(t, "the done job's relation", collected)
	})

	t.Run("cache hit", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1})
		_, first := submit(t, ts, body(""))
		assertReleased(t, s, ts, first.ID, StateDone)
		resp, hit, raw := submitWith(t, ts, body(""), map[string]string{"Idempotency-Key": "k-hit"})
		if resp.StatusCode != http.StatusOK || !hit.CacheHit {
			t.Fatalf("resubmit: status %d cache_hit=%v (%s), want a 200 cache hit", resp.StatusCode, hit.CacheHit, raw)
		}
		v := assertReleased(t, s, ts, hit.ID, StateDone)
		if mustJSON(t, v) != mustJSON(t, hit) {
			t.Errorf("cache-hit job now reads %s, answered %s", mustJSON(t, v), mustJSON(t, hit))
		}
		assertReplay(t, ts, body(""), "k-hit", v)
	})

	t.Run("failed", func(t *testing.T) {
		prev := failMode.Swap(true)
		t.Cleanup(func() { failMode.Store(prev) })
		s, ts := newTestServer(t, Config{Workers: 1})
		b := body(`, "algorithm": "failtest"`)
		_, v, _ := submitWith(t, ts, b, map[string]string{"Idempotency-Key": "k-failed"})
		failed := assertReleased(t, s, ts, v.ID, StateFailed)
		if !strings.Contains(failed.Error, "induced failure") {
			t.Errorf("failed job error = %q", failed.Error)
		}
		assertReplay(t, ts, b, "k-failed", failed)
	})

	t.Run("partial at the deadline", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1})
		b := body(`, "algorithm": "partialtest", "timeout_seconds": 0.05`)
		_, v, _ := submitWith(t, ts, b, map[string]string{"Idempotency-Key": "k-partial"})
		partial := assertReleased(t, s, ts, v.ID, StatePartial)
		if partial.Result == nil || !partial.Result.Partial {
			t.Errorf("partial job lost its anytime report: %+v", partial)
		}
		assertReplay(t, ts, b, "k-partial", partial)
	})

	t.Run("canceled while queued", func(t *testing.T) {
		gate.reset()
		started, release := gate.channels()
		s, ts := newTestServer(t, Config{Workers: 1})
		submit(t, ts, body(`, "algorithm": "blocktest"`))
		<-started
		defer close(release)
		_, v, _ := submitWith(t, ts, body(""), map[string]string{"Idempotency-Key": "k-canceled"})
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel queued job: status %d, want 200", resp.StatusCode)
		}
		canceled := assertReleased(t, s, ts, v.ID, StateCanceled)
		assertReplay(t, ts, body(""), "k-canceled", canceled)
	})

	t.Run("doomed in queue", func(t *testing.T) {
		gate.reset()
		started, release := gate.channels()
		s, ts := newTestServer(t, Config{Workers: 1})
		submit(t, ts, body(`, "algorithm": "blocktest"`))
		<-started
		b := body(`, "timeout_seconds": 0.05`)
		_, v, _ := submitWith(t, ts, b, map[string]string{"Idempotency-Key": "k-doomed"})
		time.Sleep(100 * time.Millisecond)
		close(release)
		doomed := assertReleased(t, s, ts, v.ID, StateFailed)
		if !strings.Contains(doomed.Error, "in queue") || doomed.StartedAt != nil {
			t.Errorf("job = %+v, want failed with its deadline lapsed in queue", doomed)
		}
		assertReplay(t, ts, b, "k-doomed", doomed)
	})

	t.Run("dataset profile and batches", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, StateDir: t.TempDir()})
		_, dv := createDataset(t, ts, body(""))
		pollDataset(t, ts, dv.ID, func(v DatasetView) bool { return v.State == DatasetReady })
		assertReleased(t, s, ts, dv.JobIDs[0], StateDone)

		if code, _ := postBatch(t, ts, dv.ID, "5,10115,Berlin\n"); code != http.StatusAccepted {
			t.Fatalf("batch: status %d", code)
		}
		dv = pollDataset(t, ts, dv.ID, func(v DatasetView) bool { return v.State == DatasetReady && v.Version == 2 })
		assertReleased(t, s, ts, dv.JobIDs[1], StateDone)

		d, _ := s.lookupDataset(dv.ID)
		collected := queueBatch(t, s, d, "6", "14467", "Potsdam")
		dv = pollDataset(t, ts, dv.ID, func(v DatasetView) bool { return v.State == DatasetReady && v.Version == 3 })
		assertReleased(t, s, ts, dv.JobIDs[2], StateDone)
		awaitCollected(t, "the done batch's rows", collected)

		// A failed checkpoint fails the batch after its rows were folded in.
		armFaults(t, "checkpoint.rename:error")
		collected = queueBatch(t, s, d, "7", "69117", "Heidelberg")
		dv = pollDataset(t, ts, dv.ID, func(v DatasetView) bool { return v.State == DatasetFailed })
		assertReleased(t, s, ts, dv.JobIDs[3], StateFailed)
		awaitCollected(t, "the failed batch's rows", collected)

		assertNoInput(t, s)
	})
}
