package main

import (
	"strings"
	"time"

	"holistic/internal/core"
	"holistic/internal/pli"
)

// metricDef names one reported metric and its unit. The two tables below are
// the benchmark's metric contract; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"profile_s", "s"},
	{"peak_heap_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"batch_p90_ms", "ms"},
}

// mudsPhases maps the MUDS FD phase names onto their per-layer metric
// stems. MUDS reports the checks of these phases in one delta after the last
// of them ends, so their checks are only known together: core.fdPhases_checks
// and the per-check cost of the five phases' time, core.fdPhases_us_per_check.
var mudsPhases = map[string]string{
	core.PhaseMinimizeFDs:      "core.minimizeFDs",
	core.PhaseCalculateRZ:      "core.calculateRZ",
	core.PhaseGenerateShadowed: "core.generateShadowed",
	core.PhaseMinimizeShadowed: "core.minimizeShadowed",
	core.PhaseCompletionSweep:  "core.completionSweep",
}

// phaseMetrics maps the other engine and incremental phases onto the layer
// metric their time is added to.
var phaseMetrics = map[string]string{
	core.PhaseLoad:         "relation.load_ms",
	core.PhaseSpider:       "ind.spider_ms",
	core.PhaseDucc:         "ucc.ducc_ms",
	core.PhaseUCCDiscovery: "ucc.ducc_ms",
	core.PhaseFDDiscovery:  "fd.discovery_ms",
	core.PhaseAppend:       "incremental.append_ms",
	core.PhaseRevalidate:   "incremental.revalidate_ms",
	core.PhaseUCCRepair:    "incremental.uccRepair_ms",
	core.PhaseFDRepair:     "incremental.fdRepair_ms",
	core.PhaseINDDelta:     "incremental.indDelta_ms",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"relation.load_ms", "ms"},
		{"pli.build_ms", "ms"},
		{"pli.intersections", "count"},
		{"pli.fast_checks", "count"},
		{"pli.materializations", "count"},
		{"pli.fast_check_ratio", "ratio"},
		{"pli.cache_hit_ratio", "ratio"},
		{"pli.evictions", "count"},
		{"pli.cache_bytes", "bytes"},
		{"ind.spider_ms", "ms"},
		{"ucc.ducc_ms", "ms"},
		{"fd.discovery_ms", "ms"},
	}
	for _, stem := range []string{"core.minimizeFDs", "core.calculateRZ", "core.generateShadowed", "core.minimizeShadowed", "core.completionSweep"} {
		defs = append(defs, metricDef{stem + "_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"core.fdPhases_checks", "count"},
		metricDef{"core.fdPhases_us_per_check", "us"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
	)
	for _, p := range []string{"append", "revalidate", "uccRepair", "fdRepair", "indDelta"} {
		defs = append(defs, metricDef{"incremental." + p + "_ms", "ms"})
	}
	for _, kind := range []string{"job", "batch"} {
		for _, s := range []string{"submit", "queue_wait", "run", "finish"} {
			for _, q := range []string{"p50", "p90"} {
				defs = append(defs, metricDef{"server." + kind + "." + s + "_" + q + "_ms", "ms"})
			}
		}
	}
	return append(defs,
		metricDef{"server.result_cache_hit_ratio", "ratio"},
		metricDef{"server.admission_rejections", "count"},
		metricDef{"durable.wal_records_per_op", "count"},
		metricDef{"durable.checkpoints_per_batch", "count"},
		metricDef{"durable.state_dir_bytes", "bytes"},
		metricDef{"trace.profile_s", "s"},
		metricDef{"machine.ref_ms", "ms"},
	)
}()

// layerSums accumulates per-layer quantities over some unit of work (a
// library pass, or a whole service-mix window). Keys are metric names, plus
// a few raw counters that finish turns into ratios.
type layerSums map[string]float64

// addPhase adds one phase's time.
func (l layerSums) addPhase(phase string, ms float64) {
	if stem, ok := mudsPhases[phase]; ok {
		l[stem+"_ms"] += ms
		l["core.fdPhases_ms"] += ms
		return
	}
	if name, ok := phaseMetrics[phase]; ok {
		l[name] += ms
	}
}

// addChecks adds a check delta that arrived outside any phase, after phase
// lastEnded ended: MUDS reports its FD phases' checks that way.
func (l layerSums) addChecks(lastEnded string, n float64) {
	if _, ok := mudsPhases[lastEnded]; ok {
		l["core.fdPhases_checks"] += n
	}
}

// addCache adds the counters of the PLI providers one run retired. The
// cache footprint keeps its largest snapshot.
func (l layerSums) addCache(stats []pli.CacheStats) {
	for _, s := range stats {
		l["pli.intersections"] += float64(s.Intersections)
		l["pli.fast_checks"] += float64(s.FastChecks)
		l["pli.materializations"] += float64(s.Materializations)
		l["pli.evictions"] += float64(s.Evictions)
		l["pli.hits"] += float64(s.Hits)
		l["pli.misses"] += float64(s.Misses)
		if b := float64(s.Bytes); b > l["pli.cache_bytes"] {
			l["pli.cache_bytes"] = b
		}
	}
}

// finish divides the job-side sums by jobs and the incremental sums by
// batches, derives the ratios and per-check costs, and fills every per-layer
// metric the sums do not cover with 0.
func (l layerSums) finish(jobs, batches float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = 0
	}
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	for k, v := range l {
		switch {
		case k == "pli.hits" || k == "pli.misses" || k == "pli.cache_bytes" || k == "core.fdPhases_ms":
		case strings.HasPrefix(k, "incremental."):
			out[k] = per(v, batches)
		default:
			out[k] = per(v, jobs)
		}
	}
	out["pli.cache_bytes"] = l["pli.cache_bytes"]
	out["pli.fast_check_ratio"] = per(l["pli.fast_checks"], l["pli.fast_checks"]+l["pli.materializations"])
	out["pli.cache_hit_ratio"] = per(l["pli.hits"], l["pli.hits"]+l["pli.misses"])
	out["core.fdPhases_us_per_check"] = per(l["core.fdPhases_ms"]*1000, l["core.fdPhases_checks"])
	return out
}

// phaseObserver is the core.Observer of traced library runs. It records a
// span per phase with the check deltas that arrived inside it, and
// attributes deltas that arrive between phases. It ignores PLI cache
// snapshots: a job's pli.* sums come from its Result.Cache, which already
// holds every snapshot once, and a batch's session provider reports running
// totals that are not the job list's.
type phaseObserver struct {
	core.NopObserver
	tr         *tracer
	parent, op int
	sums       layerSums
	start      time.Time
	inPhase    bool
	checks     float64
	lastEnded  string
}

func (o *phaseObserver) PhaseStart(string) { o.start, o.checks, o.inPhase = time.Now(), 0, true }

func (o *phaseObserver) Checks(delta int) {
	if o.inPhase {
		o.checks += float64(delta)
		return
	}
	o.sums.addChecks(o.lastEnded, float64(delta))
}

func (o *phaseObserver) PhaseEnd(name string, d time.Duration) {
	o.tr.add(o.parent, o.op, name, o.start, time.Now(), map[string]any{"checks": o.checks})
	o.sums.addPhase(name, ms(d))
	o.inPhase, o.lastEnded = false, name
}
