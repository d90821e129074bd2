// Command profiled is the holistic profiling service: a long-running HTTP
// daemon that accepts profiling jobs, executes them on a bounded worker pool
// driving the engine's strategy registry, caches results by dataset content,
// and streams per-job progress events.
//
// Usage:
//
//	profiled [-addr host:port] [-workers N] [-queue N] [-job-timeout d]
//	         [-max-job-timeout d] [-shutdown-timeout d] [-data dir]
//	         [-state-dir dir] [-cache N] [-max-body bytes]
//	         [-max-cache-bytes N] [-retries N] [-retry-backoff d]
//	         [-breaker-threshold N] [-breaker-cooldown d] [-mem-soft bytes]
//	         [-mem-hard bytes] [-http-read-timeout d] [-quiet]
//
// API:
//
//	POST   /v1/jobs             submit a job (inline CSV or data-dir path)
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        job status and result
//	GET    /v1/jobs/{id}/events live progress stream (JSON lines)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /healthz             liveness (503 while draining)
//	GET    /metrics             Prometheus text metrics
//
// SIGINT/SIGTERM starts a graceful shutdown: admission flips to 503, queued
// jobs are canceled, and in-flight jobs get -shutdown-timeout to finish
// before their contexts are cut.
//
// Every job has one deadline (-job-timeout, or the request's
// timeout_seconds), counted from admission: queue wait spends it just as
// running does. The daemon defends itself under overload: admission learns
// per-algorithm service times and rejects (429, honest Retry-After) jobs
// predicted to miss their deadline, a job whose deadline lapses in the queue
// fails without running, repeated failures of one (dataset, algorithm) pair
// open a circuit breaker that fast-fails with 422 until -breaker-cooldown
// passes, and heap growth past -mem-soft / -mem-hard degrades new jobs or
// refuses large ones with 503. Retried submissions carrying an Idempotency-Key
// header (or idempotency_key field) dedup onto the original job.
//
// With -state-dir, the daemon is crash-safe: admitted jobs and dataset
// sessions are journaled to a checksummed, fsync'd WAL and dataset profiler
// state is checkpointed atomically after every completed job. On startup the
// directory is replayed — dataset sessions come back warm with their last
// completed profile, interrupted dataset jobs are reported as "lost" (the
// session is poisoned, its last good report stays readable), and interrupted
// plain jobs re-run. A torn WAL tail (the expected residue of a crash) is
// truncated and counted; mid-file corruption refuses to replay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"holistic/internal/server"
)

func main() {
	var (
		addr            = flag.String("addr", "127.0.0.1:8646", "listen address (host:port; port 0 picks a free port)")
		workers         = flag.Int("workers", 2, "number of jobs executed concurrently")
		queueDepth      = flag.Int("queue", 16, "admission queue depth; submissions beyond it get 429")
		jobTimeout      = flag.Duration("job-timeout", 5*time.Minute, "default per-job deadline, counted from admission (0 = none)")
		maxJobTimeout   = flag.Duration("max-job-timeout", 0, "cap on requested per-job deadlines (0 = no cap)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 30*time.Second, "drain deadline on SIGINT/SIGTERM before in-flight jobs are canceled")
		dataDir         = flag.String("data", "", "directory for path-based dataset submissions (empty = inline CSV only)")
		stateDir        = flag.String("state-dir", "", "directory for crash-safe state (WAL + checkpoints); replayed on startup (empty = in-memory only)")
		cacheEntries    = flag.Int("cache", 256, "content-addressed result cache size (reports)")
		maxBody         = flag.Int64("max-body", 32<<20, "maximum request body size in bytes")
		maxCacheBytes   = flag.Int64("max-cache-bytes", 0, "per-job PLI cache byte budget (0 = engine default, -1 = unbudgeted); over budget the cache sheds and recomputes")
		retries         = flag.Int("retries", 2, "re-runs of a job failing on a transient error (0 = none)")
		retryBackoff    = flag.Duration("retry-backoff", 50*time.Millisecond, "sleep before the first retry, doubled per attempt")
		breakerThresh   = flag.Int("breaker-threshold", 3, "consecutive failures of one (dataset, algorithm) pair before its circuit breaker opens")
		breakerCooldown = flag.Duration("breaker-cooldown", 30*time.Second, "how long an open circuit breaker fast-fails (422) before a trial probe is allowed")
		memSoft         = flag.Int64("mem-soft", 0, "soft heap watermark in bytes; above it new jobs run degraded (0 = off)")
		memHard         = flag.Int64("mem-hard", 0, "hard heap watermark in bytes; above it large submissions get 503 (0 = off)")
		httpReadTimeout = flag.Duration("http-read-timeout", 30*time.Second, "HTTP read timeout (full request); header read is capped at 10s")
		quiet           = flag.Bool("quiet", false, "suppress per-job log lines")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: profiled [flags]")
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "profiled: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = nil
	}
	if *jobTimeout == 0 {
		*jobTimeout = -1 // Config: negative disables the default deadline
	}

	if *retries <= 0 {
		*retries = -1 // Config: negative disables retries
	}
	srv, recovery, err := server.Open(server.Config{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		DefaultTimeout:   *jobTimeout,
		MaxTimeout:       *maxJobTimeout,
		DataDir:          *dataDir,
		StateDir:         *stateDir,
		CacheEntries:     *cacheEntries,
		MaxBodyBytes:     *maxBody,
		MaxCacheBytes:    *maxCacheBytes,
		RetryAttempts:    *retries,
		RetryBackoff:     *retryBackoff,
		BreakerThreshold: *breakerThresh,
		BreakerCooldown:  *breakerCooldown,
		MemSoftBytes:     *memSoft,
		MemHardBytes:     *memHard,
		Logf:             logf,
	})
	if err != nil {
		logger.Printf("open: %v", err)
		os.Exit(1)
	}
	if *stateDir != "" {
		how := "clean shutdown"
		if !recovery.CleanShutdown {
			how = "crash or kill"
		}
		logger.Printf("recovery: state-dir=%s records=%d (%s) torn-tail-bytes=%d sessions: %d recovered, %d failed; jobs: %d restored, %d replayed, %d lost",
			*stateDir, recovery.WALRecords, how, recovery.TornTailBytes,
			recovery.RecoveredSessions, recovery.FailedSessions,
			recovery.RestoredJobs, recovery.ReplayedJobs, recovery.LostJobs)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		os.Exit(1)
	}
	// The resolved address goes to stdout so scripts using -addr :0 can
	// discover the port.
	fmt.Printf("profiled: listening on %s\n", ln.Addr())

	// Slow-client protection: a peer that trickles its headers or body can
	// no longer pin a connection open indefinitely. WriteTimeout stays unset
	// on purpose — /v1/jobs/{id}/events streams for as long as a job runs,
	// and a write deadline would sever every long-lived event stream.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *httpReadTimeout,
		IdleTimeout:       120 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		logger.Printf("received %v, draining (deadline %v)", sig, *shutdownTimeout)
	case err := <-serveErr:
		logger.Printf("serve: %v", err)
		os.Exit(1)
	}

	// Drain the job queue first while HTTP stays up: new submissions get
	// 503, but clients can still poll their jobs to completion. The HTTP
	// listener closes afterwards.
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)

	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		logger.Printf("drain deadline hit, in-flight jobs canceled")
		os.Exit(1)
	}
	logger.Printf("drained cleanly")
}
