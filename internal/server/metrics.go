package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// metrics holds the server's monotonic counters. Gauges (queue depth,
// running jobs, breaker and watermark states) are derived live in
// writeMetrics rather than stored.
type metrics struct {
	jobsSubmitted     atomic.Int64
	jobsDone          atomic.Int64
	jobsPartial       atomic.Int64
	jobsFailed        atomic.Int64
	jobsCanceled      atomic.Int64
	jobRetries        atomic.Int64
	panics            atomic.Int64
	rejectedQueueFull atomic.Int64
	rejectedDraining  atomic.Int64
	jobsRunning       atomic.Int64
	datasetsCreated   atomic.Int64
	datasetBatches    atomic.Int64

	// Overload-resilience counters: the four admission rejection reasons
	// (rejectedQueueFull doubles as the queue_full reason), dequeue-time
	// doomed-job failures, idempotent replays, breaker fast-fails.
	rejectedPredicted   atomic.Int64
	rejectedBreaker     atomic.Int64
	rejectedMemPressure atomic.Int64
	jobsDoomedInQueue   atomic.Int64
	idemReplays         atomic.Int64
	breakerFastFails    atomic.Int64

	// queueWait observes the sojourn of every job a worker dequeues.
	queueWait histogram

	// Durability counters (all zero without Config.StateDir).
	walRecords          atomic.Int64
	walErrors           atomic.Int64
	checkpoints         atomic.Int64
	replayedJobs        atomic.Int64
	lostJobs            atomic.Int64
	recoveredSessions   atomic.Int64
	tornTailTruncations atomic.Int64
	corruptCheckpoints  atomic.Int64
}

// queueWaitBuckets are the histogram's upper bounds in seconds (+Inf is
// implicit): fine-grained around the healthy sub-second range, coarse in
// overload territory. An array, not a slice, so its length is a constant the
// histogram's counter array can size itself from.
var queueWaitBuckets = [...]float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// histogram is a fixed-bucket Prometheus histogram over float64
// observations. Counts are per-bucket (cumulated at render time) and the
// sum is kept in microseconds so the whole structure stays lock-free.
type histogram struct {
	counts    [len(queueWaitBuckets) + 1]atomic.Int64 // last slot = +Inf
	sumMicros atomic.Int64
	total     atomic.Int64
}

func (h *histogram) observe(v float64) {
	idx := len(queueWaitBuckets)
	for i, le := range queueWaitBuckets {
		if v <= le {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.sumMicros.Add(int64(v * 1e6))
	h.total.Add(1)
}

func (h *histogram) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for i, le := range queueWaitBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatLE(le), cum)
	}
	cum += h.counts[len(queueWaitBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumMicros.Load())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, h.total.Load())
}

func formatLE(le float64) string { return fmt.Sprintf("%g", le) }

// writeMetrics renders the Prometheus text exposition of the server's
// counters and gauges.
func (s *Server) writeMetrics(w io.Writer) {
	m := &s.metrics
	hits, misses, evictions, entries := s.cache.counters()
	writeMetric(w, "profiled_jobs_submitted_total", "counter",
		"Jobs accepted by POST /v1/jobs (including cache-served ones).", m.jobsSubmitted.Load())
	writeMetric(w, "profiled_jobs_done_total", "counter",
		"Jobs that finished successfully.", m.jobsDone.Load())
	writeMetric(w, "profiled_jobs_partial_total", "counter",
		"Jobs finished with a valid partial (anytime) result after hitting their deadline.", m.jobsPartial.Load())
	writeMetric(w, "profiled_jobs_failed_total", "counter",
		"Jobs that finished with an error (including per-job deadline hits).", m.jobsFailed.Load())
	writeMetric(w, "profiled_jobs_canceled_total", "counter",
		"Jobs canceled via DELETE or server shutdown.", m.jobsCanceled.Load())
	writeMetric(w, "profiled_job_retries_total", "counter",
		"Job re-runs triggered by transient failures.", m.jobRetries.Load())
	writeMetric(w, "profiled_panics_total", "counter",
		"Panics recovered from profiling runs (jobs failed, process survived).", m.panics.Load())
	writeMetric(w, "profiled_jobs_rejected_queue_full_total", "counter",
		"Submissions rejected with 429 because the queue was full.", m.rejectedQueueFull.Load())
	writeMetric(w, "profiled_jobs_rejected_draining_total", "counter",
		"Submissions rejected with 503 during shutdown.", m.rejectedDraining.Load())

	// Admission rejections broken out by reason (queue_full mirrors the
	// dedicated counter above; the label set is the operator's one-stop
	// overload dashboard).
	fmt.Fprintf(w, "# HELP profiled_admission_rejections_total Submissions rejected at admission, by reason.\n")
	fmt.Fprintf(w, "# TYPE profiled_admission_rejections_total counter\n")
	fmt.Fprintf(w, "profiled_admission_rejections_total{reason=\"queue_full\"} %d\n", m.rejectedQueueFull.Load())
	fmt.Fprintf(w, "profiled_admission_rejections_total{reason=\"predicted_deadline\"} %d\n", m.rejectedPredicted.Load())
	fmt.Fprintf(w, "profiled_admission_rejections_total{reason=\"breaker_open\"} %d\n", m.rejectedBreaker.Load())
	fmt.Fprintf(w, "profiled_admission_rejections_total{reason=\"mem_pressure\"} %d\n", m.rejectedMemPressure.Load())

	writeMetric(w, "profiled_jobs_doomed_in_queue_total", "counter",
		"Jobs whose deadline (counted from admission) elapsed while queued, failed at dequeue without running.", m.jobsDoomedInQueue.Load())
	writeMetric(w, "profiled_idempotent_replays_total", "counter",
		"Submissions deduplicated onto an existing job via an idempotency key.", m.idemReplays.Load())
	writeMetric(w, "profiled_breaker_trips_total", "counter",
		"Circuit-breaker open transitions (per dataset fingerprint + algorithm).", s.breakers.tripsTotal())
	writeMetric(w, "profiled_breaker_fast_fails_total", "counter",
		"Submissions fast-failed with 422 by an open circuit breaker.", m.breakerFastFails.Load())
	m.queueWait.write(w, "profiled_queue_wait_seconds",
		"Queue sojourn of dequeued jobs (admission to worker pickup).")

	writeMetric(w, "profiled_datasets_created_total", "counter",
		"Incremental profiling sessions created via POST /v1/datasets.", m.datasetsCreated.Load())
	writeMetric(w, "profiled_dataset_batches_total", "counter",
		"Batch appends accepted via POST /v1/datasets/{id}/batches.", m.datasetBatches.Load())
	writeMetric(w, "profiled_wal_records_total", "counter",
		"Records fsync'd to the state WAL (admissions, terminal transitions, markers).", m.walRecords.Load())
	writeMetric(w, "profiled_wal_errors_total", "counter",
		"State WAL appends that failed (admissions rejected, terminal records dropped).", m.walErrors.Load())
	writeMetric(w, "profiled_checkpoints_written_total", "counter",
		"Dataset checkpoints written atomically after completed dataset jobs.", m.checkpoints.Load())
	writeMetric(w, "profiled_replayed_jobs_total", "counter",
		"Journaled in-flight jobs re-enqueued during startup recovery.", m.replayedJobs.Load())
	writeMetric(w, "profiled_lost_jobs_total", "counter",
		"Journaled in-flight dataset jobs finished as lost during startup recovery.", m.lostJobs.Load())
	writeMetric(w, "profiled_recovered_sessions_total", "counter",
		"Dataset sessions restored ready (warm profiler resumed) during startup recovery.", m.recoveredSessions.Load())
	writeMetric(w, "profiled_corrupt_tail_truncations_total", "counter",
		"Torn WAL tails truncated during startup recovery (expected crash residue).", m.tornTailTruncations.Load())
	writeMetric(w, "profiled_corrupt_checkpoints_total", "counter",
		"Dataset checkpoints rejected as corrupt during startup recovery.", m.corruptCheckpoints.Load())
	writeMetric(w, "profiled_result_cache_hits_total", "counter",
		"Submissions served from the content-addressed result cache.", hits)
	writeMetric(w, "profiled_result_cache_misses_total", "counter",
		"Submissions that missed the result cache.", misses)
	writeMetric(w, "profiled_result_cache_evictions_total", "counter",
		"Reports evicted from the result cache.", evictions)
	writeMetric(w, "profiled_result_cache_entries", "gauge",
		"Reports currently held in the result cache.", int64(entries))
	writeMetric(w, "profiled_jobs_running", "gauge",
		"Jobs currently executing on the worker pool.", m.jobsRunning.Load())
	writeMetric(w, "profiled_queue_depth", "gauge",
		"Jobs waiting in the admission queue.", int64(len(s.queue)))
	writeMetric(w, "profiled_jobs_retained", "gauge",
		"Job records currently retained for status queries.", int64(s.jobCount()))

	open, halfOpen := s.breakers.counts(time.Now())
	writeMetric(w, "profiled_breakers_open", "gauge",
		"Circuit breakers currently open (fast-failing their key).", int64(open))
	writeMetric(w, "profiled_breakers_half_open", "gauge",
		"Circuit breakers past cooldown, waiting on (or running) a trial probe.", int64(halfOpen))
	level, heap := s.governor.last()
	writeMetric(w, "profiled_mem_watermark_level", "gauge",
		"Memory governor level: 0 healthy, 1 above soft watermark, 2 above hard.", int64(level))
	writeMetric(w, "profiled_mem_heap_bytes", "gauge",
		"Live heap bytes behind the governor's last sample (0 with watermarks unset).", heap)

	degraded := int64(0)
	if status, _ := s.health(); status == healthDegraded {
		degraded = 1
	}
	writeMetric(w, "profiled_degraded", "gauge",
		"1 while /healthz reports degraded.", degraded)
}

func writeMetric(w io.Writer, name, kind, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, kind, name, v)
}
