// Command perfbench is the repository's end-to-end benchmark. It profiles a
// seeded, paper-shaped job list through the library (paper-wide) and drives
// the profiling daemon over loopback HTTP (service-mix), checks every
// answer, and prints one JSON line with the metrics BENCHMARK.json names.
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-wide --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run and writes the spans to
// .bench_build/traces/<workload>-seed<n>.json. NOTES.md explains every
// metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"holistic/internal/core"
)

type config struct {
	seed   int64
	window time.Duration
	trace  bool
	mach   *machine
}

// workers is the pool width of every library job and of the daemon: the
// machine the benchmark was sized on has 2 CPUs.
const workers = 2

// opts are the engine options of every library job.
func (c config) opts() core.Options { return core.Options{Workers: workers} }

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64 // end-to-end or per-layer, by --trace
	tr                *tracer
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"paper-wide": func(ctx context.Context, c config) (*outcome, error) {
		return runLibrary(ctx, c, paperWideInputs)
	},
	"service-mix": runServiceMix,
}

// setupRounds is how often a run repeats its set-up each time it sets up:
// before the window, after it, and in a library run before every pass.
// setup_s is the median of all these rounds. A paper-wide set-up lasts under
// 0.2 s, and on a shared machine single rounds of one run differed by half,
// so the rounds sample several moments of the run.
const setupRounds = 8

// timeSetups runs setup setupRounds times, each on a collected heap, and
// returns the last result and the wall time of every round. drop releases
// each earlier result.
func timeSetups[T any](setup func() (T, error), drop func(T)) (T, []float64, error) {
	var last, zero T
	var times []float64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			drop(last)
			last = zero
		}
		runtime.GC()
		t0 := time.Now()
		st, err := setup()
		if err != nil {
			return zero, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		last = st
	}
	return last, times, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed; every input is generated from it (claims are confirmed on seed %d too)", claimSeed))
	seconds := flag.Int("seconds", 40, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics, 0 reports end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, mach: &machine{}}
	out, err := run(context.Background(), cfg)
	if err != nil {
		log.Fatalf("%s: %v", *workload, err)
	}
	log.Printf("reference kernel: median %.3f ms over %d rounds, times scaled by %.4f",
		median(cfg.mach.refMS), len(cfg.mach.refMS), cfg.mach.scale())
	if cfg.trace {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := out.tr.write(path); err != nil {
			log.Fatalf("write trace: %v", err)
		}
		log.Printf("spans written to %s", path)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			log.Fatalf("%s: metric %s was not measured", *workload, d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		log.Fatalf("encode result: %v", err)
	}
	fmt.Println(string(data))
}
