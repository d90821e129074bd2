package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"holistic/internal/core"
	"holistic/internal/incremental"
	"holistic/internal/relation"
)

const (
	// libBatchesPerPass is how many 100-row batches a library pass folds
	// into its warm session after the job list.
	libBatchesPerPass = 20
	// minJobMS: a job shorter than this runs again within the pass until
	// its runs add up to it, so the many short jobs get enough samples for
	// a steady median.
	minJobMS = 100
)

// csvSource parses a job's CSV bytes on every Load, like the daemon does
// with an inline submission.
type csvSource struct {
	name string
	data []byte
}

func (s csvSource) Name() string { return s.name }

func (s csvSource) Load() (*relation.Relation, error) {
	return relation.ReadCSV(s.name, bytes.NewReader(s.data), relation.CSVOptions{
		HasHeader: true,
		Relation:  relation.Options{Workers: workers},
	})
}

// libState is one set-up of a library workload: the job list's CSV bytes
// and a warm incremental session of uniprot-like rows, with the batches
// every pass folds into it.
type libState struct {
	datasets []libDataset
	cols     []string
	base     [][]string
	batches  [][][]string
	prof     *incremental.Profiler
}

func libSetup(ctx context.Context, cfg config, inputs func(int64) []libDataset) (*libState, error) {
	feed := newRowFeed(cfg.seed, "session")
	st := &libState{datasets: inputs(cfg.seed), cols: feed.cols, base: feed.base}
	for i := 0; i < libBatchesPerPass; i++ {
		st.batches = append(st.batches, feed.next(batchRows))
	}
	rel, err := relation.New("session", st.cols, st.base)
	if err != nil {
		return nil, err
	}
	if st.prof, _, err = incremental.NewProfiler(ctx, rel, core.StrategyMuds, cfg.opts(), nil); err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	return st, nil
}

// libRun holds what the passes of one library run measured.
type libRun struct {
	cfg      config
	st       *libState
	tr       *tracer
	heap     *heapSampler
	attempts int
	failures int
	// first holds each dataset's answer from the first pass (checked against
	// pinnedDigests); later runs of its jobs must match it.
	first map[string]answer

	// jobMS[j] holds every time of job j and batchMS[i] every time of
	// batch i; each pass runs the same jobs and batches in the same order.
	jobMS      [][]float64
	passPeaks  []float64
	batchMS    [][]float64
	passLayers []map[string]float64
	op         int
}

// runLibrary runs a library workload: whole passes over the job list until
// the window is spent, each after its own set-up, then the check of the
// session against a from-scratch profile, then set-up once more.
func runLibrary(ctx context.Context, cfg config, inputs func(int64) []libDataset) (*outcome, error) {
	setup := func() (*libState, error) { return libSetup(ctx, cfg, inputs) }
	drop := func(*libState) {}
	st, setups, err := timeSetups(setup, drop)
	if err != nil {
		return nil, err
	}

	r := &libRun{cfg: cfg, st: st, tr: newTracer(cfg.trace), first: map[string]answer{}}
	r.heap = startHeapSampler()
	deadline := time.Now().Add(cfg.window)
	for pass := 0; err == nil && (pass == 0 || time.Now().Before(deadline)); pass++ {
		if pass > 0 {
			// Every pass starts from a fresh set-up, so it folds the same
			// batches into the same session state, and setup_s samples the
			// machine across the window and not only at its ends. The window
			// does not count these set-ups.
			t0 := time.Now()
			var more []float64
			r.st = nil
			if r.st, more, err = timeSetups(setup, drop); err != nil {
				break
			}
			setups = append(setups, more...)
			deadline = deadline.Add(time.Since(t0))
		}
		err = r.pass(ctx, pass)
	}
	r.heap.Stop()
	if err != nil {
		return nil, err
	}
	r.checkSession(ctx)
	// The later set-ups start from the same nearly empty heap as the first.
	r.st = nil
	_, later, err := timeSetups(setup, drop)
	if err != nil {
		return nil, err
	}
	setups = append(setups, later...)

	// A job's or batch's median over its runs discounts a run that another
	// tenant of the machine slowed down; profile_s is the job list's time
	// built from those medians.
	jobMedians, batchMedians := medians(r.jobMS), medians(r.batchMS)
	scale := cfg.mach.scale()
	profile := 0.0
	for _, t := range jobMedians {
		profile += t / 1000 * scale
	}
	out := &outcome{attempted: r.attempts, failed: r.failures, tr: r.tr}
	if cfg.trace {
		out.values = map[string]float64{}
		for _, d := range perLayer {
			vals := make([]float64, len(r.passLayers))
			for i, m := range r.passLayers {
				vals[i] = m[d.name]
			}
			out.values[d.name] = median(vals)
		}
		out.values["trace.profile_s"] = profile
		out.values["machine.ref_ms"] = median(cfg.mach.refMS)
		return out, nil
	}
	out.values = map[string]float64{
		"setup_s":      median(setups) * scale,
		"profile_s":    profile,
		"peak_heap_mb": median(r.passPeaks),
		"job_p50_ms":   quantile(jobMedians, 0.5) * scale,
		"job_p90_ms":   quantile(jobMedians, 0.9) * scale,
		"batch_p50_ms": quantile(batchMedians, 0.5) * scale,
		"batch_p90_ms": quantile(batchMedians, 0.9) * scale,
	}
	return out, nil
}

// medians returns the median of each series.
func medians(series [][]float64) []float64 {
	out := make([]float64, len(series))
	for i, xs := range series {
		out[i] = median(xs)
	}
	return out
}

// pass profiles the whole job list once and folds the batches into the
// set-up's fresh session between the jobs. Per-layer sums cover each job's
// first run only, so a pass's sums stand for one run of the job list.
func (r *libRun) pass(ctx context.Context, n int) error {
	runtime.GC()
	sums := layerSums{}
	alloc0, gc0 := runtimeCounters()
	start := time.Now()
	jobs := 0
	for _, d := range r.st.datasets {
		jobs += len(d.algs)
	}
	j, folded := 0, 0
	for _, d := range r.st.datasets {
		var ref answer
		for i, alg := range d.algs {
			if n == 0 {
				r.jobMS = append(r.jobMS, nil)
			}
			r.cfg.mach.sample()
			for rep, spent := 0, 0.0; rep == 0 || spent < minJobMS; rep++ {
				layer := sums
				if rep > 0 {
					layer = layerSums{}
				}
				res, took := r.job(ctx, j, d, alg, layer)
				spent += took
				switch {
				case res == nil:
					spent = minJobMS
				case i == 0 && rep == 0:
					ref = answerOf(res)
					r.checkReference(n, d.name, ref)
				case !ref.agrees(answerOf(res)):
					r.failures++
					log.Printf("pass %d: %s: %s disagrees with %s", n, d.name, alg, d.algs[0])
				}
			}
			j++
			// The batches are spread evenly between the jobs, so they sample
			// the machine across the whole pass rather than in one burst.
			for ; folded < j*len(r.st.batches)/jobs; folded++ {
				if n == 0 {
					r.batchMS = append(r.batchMS, nil)
				}
				if err := r.batch(ctx, folded, r.st.batches[folded], sums); err != nil {
					return err
				}
			}
		}
	}
	end := time.Now()
	log.Printf("pass %d: %.3fs", n, end.Sub(start).Seconds())
	alloc1, gc1 := runtimeCounters()
	r.passPeaks = append(r.passPeaks, r.heap.peakMB(start, end))
	r.tr.add(0, 0, "pass", start, end, map[string]any{"pass": n})
	if r.cfg.trace {
		sums["runtime.alloc_mb"] = alloc1 - alloc0
		sums["runtime.gc_cycles"] = gc1 - gc0
		r.passLayers = append(r.passLayers, sums.finish(1, libBatchesPerPass))
	}
	return nil
}

// job profiles one dataset with one strategy, from CSV bytes to Result, as
// job j of the list, and returns its result (nil when it failed) and time.
// It starts on a collected heap, so no job pays for the garbage of the one
// before it. A traced job also times the single-column PLI build on its
// relation.
func (r *libRun) job(ctx context.Context, j int, d libDataset, alg string, sums layerSums) (*core.Result, float64) {
	runtime.GC()
	r.op++
	r.attempts++
	var src core.Source = csvSource{name: d.name, data: d.csv}
	var obs core.Observer
	var memo *core.MemoSource
	start := time.Now()
	id := 0
	if r.cfg.trace {
		memo = &core.MemoSource{Src: src}
		src = memo
		id = r.tr.add(0, r.op, "job", start, start, map[string]any{"dataset": d.name, "algorithm": alg})
		obs = &phaseObserver{tr: r.tr, parent: id, op: r.op, sums: sums}
	}
	res, err := core.RunContext(ctx, alg, src, r.cfg.opts(), obs)
	end := time.Now()
	took := ms(end.Sub(start))
	r.jobMS[j] = append(r.jobMS[j], took)
	r.tr.end(id, end)
	if err != nil || res.Partial {
		r.failures++
		log.Printf("%s/%s failed: %v", d.name, alg, err)
		return nil, took
	}
	if r.cfg.trace {
		sums.addCache(res.Cache)
		t0 := time.Now()
		r.cfg.opts().NewProvider(memo.Relation())
		t1 := time.Now()
		sums["pli.build_ms"] += ms(t1.Sub(t0))
		r.tr.add(id, r.op, "pli.build", t0, t1, nil)
	}
	return res, took
}

// checkReference checks a dataset's reference answer: against its pinned
// digest, and against the first pass on every pass.
func (r *libRun) checkReference(pass int, name string, a answer) {
	if pass == 0 {
		r.first[name] = a
		log.Printf("digest %s %s", name, a.digest())
		if want := pinnedDigests[name]; want != a.digest() {
			r.failures++
			log.Printf("%s: digest %s, pinned %s", name, a.digest(), want)
		}
		return
	}
	if r.first[name].digest() != a.digest() {
		r.failures++
		log.Printf("pass %d: %s answer changed between passes", pass, name)
	}
}

// batch folds batch i into the session, on a collected heap; the new profile
// is readable when AppendBatch returns.
func (r *libRun) batch(ctx context.Context, i int, rows [][]string, sums layerSums) error {
	runtime.GC()
	r.op++
	r.attempts++
	var obs core.Observer
	start := time.Now()
	id := 0
	if r.cfg.trace {
		id = r.tr.add(0, r.op, "batch", start, start, nil)
		obs = &phaseObserver{tr: r.tr, parent: id, op: r.op, sums: sums}
	}
	res, err := r.st.prof.AppendBatch(ctx, rows, obs)
	end := time.Now()
	r.batchMS[i] = append(r.batchMS[i], ms(end.Sub(start)))
	r.tr.end(id, end)
	if err != nil || res.Partial {
		// A failed append leaves the session unusable, so the run stops.
		return fmt.Errorf("session batch: %v", err)
	}
	return nil
}

// checkSession compares the last pass's session with a from-scratch MUDS
// profile of its rows.
func (r *libRun) checkSession(ctx context.Context) {
	st := r.st
	want, err := scratchAnswer(ctx, r.cfg, st.cols, append([][][]string{st.base}, st.batches...)...)
	if err == nil && want.digest() != answerOf(st.prof.Result()).digest() {
		err = fmt.Errorf("session answer differs from a from-scratch profile of its rows")
	}
	if err != nil {
		r.failures++
		log.Printf("session check: %v", err)
	}
}
