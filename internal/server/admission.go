package server

import (
	"math"
	runtimemetrics "runtime/metrics"
	"sync"
	"time"
)

// This file is the server's overload-resilience brain: the adaptive
// admission controller (deadline-aware rejection) and the memory-watermark
// governor. Dependency discovery is exponential in
// the worst case, so no static queue depth is simultaneously safe for a
// 100-row CSV and a hostile 100k-row one — instead the server learns what
// jobs actually cost and refuses, at admission time, work it predicts it
// cannot finish before its deadline. Refusing early is kinder than queueing
// doomed work: the client gets an honest Retry-After instead of a 202
// followed by a deadline failure minutes later.

// ewmaAlpha weights new observations in the service-time moving averages.
// 0.2 adapts within ~5 jobs to a shifted workload without letting one
// outlier dominate.
const ewmaAlpha = 0.2

// ewma is an exponentially weighted moving average. The zero value is empty:
// it reports nothing until the first observation seeds it.
type ewma struct {
	val float64
	n   int64
}

func (e *ewma) observe(v float64) {
	if e.n == 0 {
		e.val = v
	} else {
		e.val += ewmaAlpha * (v - e.val)
	}
	e.n++
}

func (e *ewma) value() (float64, bool) { return e.val, e.n > 0 }

// admission is the adaptive admission controller. It tracks an EWMA of job
// service time per algorithm (and overall) and predicts, from the queue
// ahead, whether a new job can finish before its deadline. All methods are
// safe for concurrent use.
type admission struct {
	workers int

	mu      sync.Mutex
	perAlg  map[string]*ewma
	overall ewma
}

func newAdmission(workers int) *admission {
	return &admission{workers: workers, perAlg: map[string]*ewma{}}
}

// observeService records one completed run's service time for alg.
func (a *admission) observeService(alg string, d time.Duration) {
	s := d.Seconds()
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.perAlg[alg]
	if !ok {
		e = &ewma{}
		a.perAlg[alg] = e
	}
	e.observe(s)
	a.overall.observe(s)
}

// estimateService predicts the service time of a job running alg, in
// seconds. Per-algorithm history wins; with none, the overall average
// stands in; with no history at all the estimate is unknown and admission
// must not reject (the first job of a cold server is how the controller
// learns).
func (a *admission) estimateService(alg string) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e, ok := a.perAlg[alg]; ok {
		if v, seeded := e.value(); seeded {
			return v, true
		}
	}
	return a.overall.value()
}

// predictWait estimates how long a job admitted now would sit in the queue:
// the queued jobs ahead of it, costed at the overall service average, spread
// over the worker pool. Unknown history predicts zero wait (admit and learn).
func (a *admission) predictWait(queued int) float64 {
	if queued <= 0 {
		return 0
	}
	a.mu.Lock()
	svc, ok := a.overall.value()
	a.mu.Unlock()
	if !ok {
		return 0
	}
	return float64(queued) * svc / float64(max(a.workers, 1))
}

// admissionSlack is the margin a predicted completion must overshoot the
// deadline by before the job is rejected: estimates are noisy, and a job
// predicted to land within epsilon of its deadline deserves its chance (it
// may also return a useful partial result).
func admissionSlack(deadline time.Duration) time.Duration {
	slack := deadline / 5
	if slack < 50*time.Millisecond {
		slack = 50 * time.Millisecond
	}
	return slack
}

// retryAfterSecs turns a predicted wait (seconds) into an honest
// Retry-After value, clamped to [1s, 60s] and rounded up so a client
// sleeping exactly that long finds capacity more often than not.
func retryAfterSecs(predictedWait float64) int {
	secs := int(math.Ceil(predictedWait))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// --- memory-watermark governor ---

// Memory pressure levels reported by the governor.
const (
	memHealthy = iota
	// memSoft: heap above the soft watermark. New jobs run degraded with a
	// shrunken PLI cache budget, trading speed for footprint while results
	// stay exact.
	memSoft
	// memHard: heap above the hard watermark. Large-dataset submissions are
	// refused with 503 until pressure recedes; small ones still run
	// degraded.
	memHard
)

// heapMetric is the runtime/metrics sample the governor watches: live bytes
// in heap objects, the number the PLI caches and relations actually drive.
const heapMetric = "/memory/classes/heap/objects:bytes"

// degradedCacheBytes is the PLI cache budget forced onto jobs admitted above
// the soft watermark. A job's own tighter budget wins.
const degradedCacheBytes = 16 << 20

// largeJobBytes is the dataset size at which a submission counts as large for
// the hard-watermark gate.
const largeJobBytes = 256 << 10

// memSampleEvery rate-limits runtime/metrics reads; admission decisions
// between samples reuse the cached level.
const memSampleEvery = 100 * time.Millisecond

// memGovernor watches the Go heap against soft and hard watermarks and
// tells admission how aggressively to degrade. With both watermarks unset
// it reports healthy without ever sampling.
type memGovernor struct {
	soft, hard int64

	mu        sync.Mutex
	sampledAt time.Time
	heap      int64
	level     int
}

func newMemGovernor(soft, hard int64) *memGovernor {
	return &memGovernor{soft: soft, hard: hard}
}

// state returns the current pressure level and the heap sample behind it,
// refreshing the runtime/metrics sample at most every memSampleEvery.
func (g *memGovernor) state() (int, int64) {
	if g.soft <= 0 && g.hard <= 0 {
		return memHealthy, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if now := time.Now(); now.Sub(g.sampledAt) >= memSampleEvery {
		g.sampledAt = now
		g.heap = readHeapBytes()
		switch {
		case g.hard > 0 && g.heap >= g.hard:
			g.level = memHard
		case g.soft > 0 && g.heap >= g.soft:
			g.level = memSoft
		default:
			g.level = memHealthy
		}
	}
	return g.level, g.heap
}

// last reports the most recent sample without re-reading runtime/metrics —
// the metrics endpoint renders from it.
func (g *memGovernor) last() (int, int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.level, g.heap
}

func readHeapBytes() int64 {
	sample := []runtimemetrics.Sample{{Name: heapMetric}}
	runtimemetrics.Read(sample)
	if sample[0].Value.Kind() != runtimemetrics.KindUint64 {
		return 0
	}
	return int64(sample[0].Value.Uint64())
}
