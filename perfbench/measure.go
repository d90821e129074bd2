package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler records the live heap every few milliseconds while it runs, so
// the high-water mark of any interval can be read afterwards.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	at      []time.Time
	bytes   []uint64
	samples []metrics.Sample
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), samples: []metrics.Sample{{Name: heapMetric}}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.samples)
	h.mu.Lock()
	h.at = append(h.at, time.Now())
	h.bytes = append(h.bytes, h.samples[0].Value.Uint64())
	h.mu.Unlock()
}

// Stop ends sampling and waits for the sampling goroutine to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.wg.Wait()
}

// peakMB is the highest heap sample taken in [from, to].
func (h *heapSampler) peakMB(from, to time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var peak uint64
	for i, at := range h.at {
		if !at.Before(from) && !at.After(to) && h.bytes[i] > peak {
			peak = h.bytes[i]
		}
	}
	return float64(peak) / (1 << 20)
}

// runtimeCounters reads the cumulative allocation and GC-cycle counters.
func runtimeCounters() (allocMB, gcCycles float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20), float64(s[1].Value.Uint64())
}

// refNominalMS is the reference kernel's median time on the 2-CPU machine the
// benchmark was sized on, at a calm hour. Reported times are scaled to that
// machine speed (see machine).
const refNominalMS = 10.0

// refSink keeps the reference kernel's result alive.
var refSink atomic.Uint64

// refKernel is a fixed piece of work shaped like profiling: it groups 2^15
// integer codes into clusters through a hash map, probes every cluster with a
// second key, and sorts the codes. It calls no code of the program, so its
// time changes with the machine's speed and with nothing a change to the
// program does.
func refKernel() uint64 {
	const n = 1 << 15
	codes := make([]uint32, n)
	x := uint32(2463534242)
	for i := range codes {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		codes[i] = x
	}
	groups := map[uint32][]int32{}
	for i, c := range codes {
		groups[c%4093] = append(groups[c%4093], int32(i))
	}
	var sum uint64
	seen := map[uint32]int{}
	for _, g := range groups {
		clear(seen)
		for _, i := range g {
			seen[codes[i]%61]++
		}
		sum += uint64(len(seen))
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	return sum + uint64(codes[n/2])
}

// machine tracks the speed of the shared machine during a run. The machine's
// speed drifts by a fifth and more over minutes, and every timing of a run
// moves with it, set-up included. So a run times the reference kernel, on
// every worker at once, at many quiet points of its window (before every
// library job, after every service round), and scales
// each reported time by refNominalMS over the kernel's median: a time is
// reported as it would read on the machine at its nominal speed. The kernel
// is the same code on every commit, so a change to the program moves the
// scaled times as much as the raw ones.
type machine struct {
	refMS []float64
}

// sample times one round of the reference kernel. The kernel allocates
// under a megabyte, so it needs no collected heap: forcing a collection of
// the daemon's heap after every service round would cost more than the round.
func (m *machine) sample() {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refSink.Add(refKernel())
		}()
	}
	wg.Wait()
	m.refMS = append(m.refMS, ms(time.Since(t0)))
}

// scale is the factor that turns a time measured in this run into a time at
// the nominal machine speed.
func (m *machine) scale() float64 { return refNominalMS / median(m.refMS) }

// span is one timed interval of a traced run. Spans of one operation share
// its Op id; Parent links a span to the span that caused it.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Op     int            `json:"op"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_ms"`
	End    float64        `json:"end_ms"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps the spans of a traced run in memory; write saves them when
// the run is over. A nil tracer records nothing, which is how untraced runs
// skip it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent, op int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0)), Attrs: attrs,
	})
	return id
}

// end sets the end time of span id, for spans opened before their children.
func (t *tracer) end(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = ms(at.Sub(t.t0))
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
