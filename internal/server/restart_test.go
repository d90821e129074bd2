package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The restart suite covers the crash-safety contract end to end, in process:
// a server is built against a state directory, torn down (cleanly or as if
// kill -9'd), and reconstructed from the directory alone. The reconstructed
// server must answer for every job ID and dataset it ever acknowledged.

// openTestServer is newTestServer via Open, returning the recovery stats.
func openTestServer(t *testing.T, cfg Config) (*Server, RecoveryStats, *httptest.Server) {
	t.Helper()
	s, stats, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, stats, ts
}

// crash tears the server down as a kill -9 would: journaling stops
// mid-flight, running jobs are cut, no drain-time finalization happens.
func crash(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	s.crashForTest()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
}

// stopCleanly drains the server (final checkpoints, shutdown marker).
func stopCleanly(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRestartRestoresStateCleanShutdown proves a drained daemon comes back
// with its sessions warm and every terminal job answerable: the profile
// report is byte-identical, the session accepts further batches, and job
// statuses survive.
func TestRestartRestoresStateCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, StateDir: dir}

	s1, _, ts1 := openTestServer(t, cfg)
	_ = s1
	code, d := createDataset(t, ts1, fmt.Sprintf(`{"csv": %q, "with_stats": true}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("create: status %d", code)
	}
	pollDataset(t, ts1, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	if code, _ := postBatch(t, ts1, d.ID, "5,10115,Berlin\n6,99999,Weimar\n"); code != http.StatusAccepted {
		t.Fatalf("batch: status %d", code)
	}
	before := pollDataset(t, ts1, d.ID, func(v DatasetView) bool {
		return v.State == DatasetReady && v.Version == 2
	})
	_, profBefore := getProfile(t, ts1, d.ID)
	code, pj := submit(t, ts1, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	pollUntil(t, ts1, pj.ID, func(v JobView) bool { return v.State == StateDone })

	stopCleanly(t, s1, ts1)

	s2, stats, ts2 := openTestServer(t, cfg)
	if !stats.CleanShutdown {
		t.Error("recovery did not see the clean-shutdown marker")
	}
	if stats.RecoveredSessions != 1 || stats.FailedSessions != 0 {
		t.Errorf("sessions recovered/failed = %d/%d, want 1/0", stats.RecoveredSessions, stats.FailedSessions)
	}
	// Restored records and the warm session keep metadata, not input: the
	// journal holds the CSV for the next restart.
	assertNoInput(t, s2)

	after := getDataset(t, ts2, d.ID)
	if after.State != DatasetReady || after.Version != 2 {
		t.Fatalf("restored dataset: state=%s version=%d, want ready v2", after.State, after.Version)
	}
	if got, want := mustJSON(t, after.JobIDs), mustJSON(t, before.JobIDs); got != want {
		t.Errorf("restored job ids %s, want %s", got, want)
	}
	codeP, profAfter := getProfile(t, ts2, d.ID)
	if codeP != http.StatusOK {
		t.Fatalf("restored profile: status %d", codeP)
	}
	if mustJSON(t, profAfter.Report) != mustJSON(t, profBefore.Report) {
		t.Error("restored profile report differs from the pre-restart report")
	}
	// Every job the first server acknowledged answers with its final state.
	for _, id := range before.JobIDs {
		if v := getJob(t, ts2, id); v.State != StateDone {
			t.Errorf("restored dataset job %s: state %s, want done", id, v.State)
		}
	}
	if v := getJob(t, ts2, pj.ID); v.State != StateDone {
		t.Errorf("restored plain job %s: state %s, want done", pj.ID, v.State)
	}

	// The restored profiler is warm: another batch folds in and bumps the
	// version past the pre-restart state.
	if code, _ := postBatch(t, ts2, d.ID, "7,14467,Potsdam\n"); code != http.StatusAccepted {
		t.Fatalf("post-restart batch: status %d", code)
	}
	pollDataset(t, ts2, d.ID, func(v DatasetView) bool {
		return v.State == DatasetReady && v.Version == 3
	})
}

// TestRestartAfterCrashRecoversSessions is the same round trip through a
// simulated kill -9: no shutdown marker, no final checkpoints — recovery
// works from the per-job checkpoints and the WAL alone.
func TestRestartAfterCrashRecoversSessions(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, StateDir: dir}

	s1, _, ts1 := openTestServer(t, cfg)
	_, d := createDataset(t, ts1, fmt.Sprintf(`{"csv": %q}`, testCSV))
	pollDataset(t, ts1, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	postBatch(t, ts1, d.ID, "5,10115,Berlin\n")
	// Ready (not just version 2): the ready transition happens after the
	// batch job's terminal record is journaled, so crashing now leaves a
	// fully settled session on disk.
	pollDataset(t, ts1, d.ID, func(v DatasetView) bool {
		return v.State == DatasetReady && v.Version == 2
	})
	_, profBefore := getProfile(t, ts1, d.ID)

	crash(t, s1, ts1)

	_, stats, ts2 := openTestServer(t, cfg)
	if stats.CleanShutdown {
		t.Error("crash recovery claims a clean shutdown")
	}
	if stats.RecoveredSessions != 1 {
		t.Fatalf("RecoveredSessions = %d, want 1", stats.RecoveredSessions)
	}
	code, profAfter := getProfile(t, ts2, d.ID)
	if code != http.StatusOK {
		t.Fatalf("profile after crash: status %d", code)
	}
	if mustJSON(t, profAfter.Report) != mustJSON(t, profBefore.Report) {
		t.Error("report after crash differs from the pre-crash report")
	}
	if v := getDataset(t, ts2, d.ID); v.State != DatasetReady || v.Version != 2 {
		t.Fatalf("dataset after crash: state=%s version=%d, want ready v2", v.State, v.Version)
	}
	if got := metricValue(t, ts2, "profiled_recovered_sessions_total"); got != 1 {
		t.Errorf("profiled_recovered_sessions_total = %d, want 1", got)
	}
}

// TestRestartLostJobsAndPoisonedSession kills the daemon with a dataset
// batch still queued behind a running plain job. After restart the batch job
// must answer "lost" (not 404, not a silent re-run), the session is poisoned
// with the last good report still readable, and the interrupted plain job is
// re-executed under its original ID.
func TestRestartLostJobsAndPoisonedSession(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	dir := t.TempDir()
	cfg := Config{Workers: 1, StateDir: dir}

	s1, _, ts1 := openTestServer(t, cfg)
	_, d := createDataset(t, ts1, fmt.Sprintf(`{"csv": %q}`, testCSV))
	pollDataset(t, ts1, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	_, profBefore := getProfile(t, ts1, d.ID)

	// Hog the single worker, then queue a batch behind it.
	started, release := gate.channels()
	code, blocked := submit(t, ts1, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: status %d", code)
	}
	<-started
	code, _ = postBatch(t, ts1, d.ID, "5,10115,Berlin\n")
	if code != http.StatusAccepted {
		t.Fatalf("batch: status %d", code)
	}
	batchJob := getDataset(t, ts1, d.ID).JobIDs[1]

	crash(t, s1, ts1)

	s2, stats, ts2 := openTestServer(t, cfg)
	// The re-enqueued plain job reads its bytes from its source alone; the
	// lost batch and the poisoned session hold no CSV either.
	assertNoInput(t, s2)
	if stats.LostJobs != 1 {
		t.Errorf("LostJobs = %d, want 1 (the queued batch)", stats.LostJobs)
	}
	if stats.ReplayedJobs != 1 {
		t.Errorf("ReplayedJobs = %d, want 1 (the running blocktest job)", stats.ReplayedJobs)
	}
	if stats.FailedSessions != 1 || stats.RecoveredSessions != 0 {
		t.Errorf("sessions recovered/failed = %d/%d, want 0/1", stats.RecoveredSessions, stats.FailedSessions)
	}

	// The batch job the client was polling answers definitively.
	if v := getJob(t, ts2, batchJob); v.State != StateLost {
		t.Errorf("batch job %s after restart: state %s, want lost", batchJob, v.State)
	}
	// The session is poisoned, but its last completed profile stays
	// readable — with the failed state visible on the response.
	dv := getDataset(t, ts2, d.ID)
	if dv.State != DatasetFailed || !strings.Contains(dv.Error, batchJob) {
		t.Errorf("dataset after restart: state=%s err=%q, want failed mentioning %s", dv.State, dv.Error, batchJob)
	}
	code, profAfter := getProfile(t, ts2, d.ID)
	if code != http.StatusOK || profAfter.State != DatasetFailed || profAfter.Version != 1 {
		t.Fatalf("profile after restart: status %d state %s v%d, want 200 failed v1", code, profAfter.State, profAfter.Version)
	}
	if mustJSON(t, profAfter.Report) != mustJSON(t, profBefore.Report) {
		t.Error("poisoned session serves a different report than the last good one")
	}
	// A poisoned session accepts no further batches.
	if code, _ := postBatch(t, ts2, d.ID, "6,1,x\n"); code != http.StatusConflict {
		t.Errorf("batch into poisoned session: status %d, want 409", code)
	}

	// The replayed plain job is already running again under its old ID;
	// release it and watch it finish.
	<-started
	close(release)
	pollUntil(t, ts2, blocked.ID, func(v JobView) bool { return v.State == StateDone })
	if got := metricValue(t, ts2, "profiled_replayed_jobs_total"); got != 1 {
		t.Errorf("profiled_replayed_jobs_total = %d, want 1", got)
	}
	if got := metricValue(t, ts2, "profiled_lost_jobs_total"); got != 1 {
		t.Errorf("profiled_lost_jobs_total = %d, want 1", got)
	}
}

// TestRestartCorruptCheckpoint flips a byte in a dataset checkpoint and
// restarts: the session must come back failed with a metered corruption
// error — never silently replayed from bad bytes.
func TestRestartCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, StateDir: dir}

	s1, _, ts1 := openTestServer(t, cfg)
	_, d := createDataset(t, ts1, fmt.Sprintf(`{"csv": %q}`, testCSV))
	pollDataset(t, ts1, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	stopCleanly(t, s1, ts1)

	ckPath := filepath.Join(dir, d.ID+".ckpt")
	data, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(ckPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, stats, ts2 := openTestServer(t, cfg)
	if stats.FailedSessions != 1 || stats.RecoveredSessions != 0 {
		t.Fatalf("sessions recovered/failed = %d/%d, want 0/1", stats.RecoveredSessions, stats.FailedSessions)
	}
	dv := getDataset(t, ts2, d.ID)
	if dv.State != DatasetFailed || !strings.Contains(dv.Error, "corrupt") {
		t.Errorf("dataset with corrupt checkpoint: state=%s err=%q, want failed mentioning corruption", dv.State, dv.Error)
	}
	if got := metricValue(t, ts2, "profiled_corrupt_checkpoints_total"); got != 1 {
		t.Errorf("profiled_corrupt_checkpoints_total = %d, want 1", got)
	}
}

// TestRestartTornWALTail appends garbage to the WAL (a torn last write) and
// restarts: recovery truncates the tail, meters it, and restores everything
// before the tear.
func TestRestartTornWALTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, StateDir: dir}

	s1, _, ts1 := openTestServer(t, cfg)
	_, d := createDataset(t, ts1, fmt.Sprintf(`{"csv": %q}`, testCSV))
	pollDataset(t, ts1, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	crash(t, s1, ts1)

	walPath := filepath.Join(dir, "profiled.wal")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x21, 0x43, 0x65, 0x87, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, stats, ts2 := openTestServer(t, cfg)
	if stats.TornTailBytes != 7 {
		t.Errorf("TornTailBytes = %d, want 7", stats.TornTailBytes)
	}
	if stats.RecoveredSessions != 1 {
		t.Fatalf("RecoveredSessions = %d, want 1", stats.RecoveredSessions)
	}
	if v := getDataset(t, ts2, d.ID); v.State != DatasetReady {
		t.Errorf("dataset after torn tail: state %s, want ready", v.State)
	}
	if got := metricValue(t, ts2, "profiled_corrupt_tail_truncations_total"); got != 1 {
		t.Errorf("profiled_corrupt_tail_truncations_total = %d, want 1", got)
	}
}
