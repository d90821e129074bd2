package server

import (
	"bufio"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMetricsSurface pins the /metrics series names and the reasons of the
// admission-rejection counter: dashboards, perfbench and the service scripts
// scrape them by name, so a rename or a silent removal must fail here.
func TestMetricsSurface(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()

	reasonRE := regexp.MustCompile(`^profiled_admission_rejections_total\{reason="([a-z_]+)"\} `)
	var names, reasons []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(rest)[0])
		}
		if m := reasonRE.FindStringSubmatch(line); m != nil {
			reasons = append(reasons, m[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	slices.Sort(names)
	slices.Sort(reasons)

	wantNames := []string{
		"profiled_admission_rejections_total",
		"profiled_breaker_fast_fails_total",
		"profiled_breaker_trips_total",
		"profiled_breakers_half_open",
		"profiled_breakers_open",
		"profiled_checkpoints_written_total",
		"profiled_corrupt_checkpoints_total",
		"profiled_corrupt_tail_truncations_total",
		"profiled_dataset_batches_total",
		"profiled_datasets_created_total",
		"profiled_degraded",
		"profiled_idempotent_replays_total",
		"profiled_job_retries_total",
		"profiled_jobs_canceled_total",
		"profiled_jobs_done_total",
		"profiled_jobs_doomed_in_queue_total",
		"profiled_jobs_failed_total",
		"profiled_jobs_partial_total",
		"profiled_jobs_rejected_draining_total",
		"profiled_jobs_rejected_queue_full_total",
		"profiled_jobs_retained",
		"profiled_jobs_running",
		"profiled_jobs_submitted_total",
		"profiled_lost_jobs_total",
		"profiled_mem_heap_bytes",
		"profiled_mem_watermark_level",
		"profiled_panics_total",
		"profiled_queue_depth",
		"profiled_queue_wait_seconds",
		"profiled_recovered_sessions_total",
		"profiled_replayed_jobs_total",
		"profiled_result_cache_entries",
		"profiled_result_cache_evictions_total",
		"profiled_result_cache_hits_total",
		"profiled_result_cache_misses_total",
		"profiled_wal_errors_total",
		"profiled_wal_records_total",
	}
	if !slices.Equal(names, wantNames) {
		t.Errorf("metric series:\n got %v\nwant %v", names, wantNames)
	}
	wantReasons := []string{"breaker_open", "mem_pressure", "predicted_deadline", "queue_full"}
	if !slices.Equal(reasons, wantReasons) {
		t.Errorf("admission rejection reasons = %v, want %v", reasons, wantReasons)
	}
}
