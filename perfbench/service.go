package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"holistic/internal/core"
	"holistic/internal/server"
)

// The service-mix workload: an in-process daemon with a state directory
// (WAL and checkpoints on), driven by a closed loop of mixClients over
// loopback HTTP. Each client alternates jobs and batches; three jobs in four
// are a fresh table (a result-cache miss), the fourth resends the client's
// previous fresh table (a hit). With misses in the majority, the job
// percentiles fall inside the misses' times: at an even split the median
// fell in the gap between hits (2-13 ms) and misses (17 ms and up) and swung
// with the slowest hit and fastest miss of a run. Batches go round-robin to
// the client's sessions: spreading them over several seeded sessions keeps
// the cost of a run from hinging on one table's dependency structure.
const (
	// mixClients is 1: with 2 clients on the 2-CPU machine, an operation's
	// time hinged on what the other client's operation was doing, and the
	// run-to-run spreads of the service timings passed 0.25.
	mixClients        = 1
	sessionsPerClient = 4
	// roundOps is one client's fixed operation list: 3 fresh jobs, 1
	// repeated job and 4 batches, interleaved. profile_s is the median time
	// of a round.
	roundOps = 8
	// roundEvery paces the client: a round starts every 250 ms, a little
	// more than a slow round takes. Without pacing, a run on a faster
	// machine did more batches, so its sessions grew larger, its later
	// batches took longer and its heap peaked higher: the machine's speed
	// reached the metrics a second time. Paced, every run does the same
	// work. The client still waits for each result before it sends the
	// next operation.
	roundEvery = 250 * time.Millisecond
)

// mixState is one set-up of the service-mix workload.
type mixState struct {
	srv       *server.Server
	hs        *http.Server
	serveDone chan error
	stateDir  string
	url       string
	pool      *jobPool
	clients   []*mixClient
}

func mixSetup(seed int64) (*mixState, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "state-")
	if err != nil {
		return nil, err
	}
	st := &mixState{stateDir: dir, pool: newJobPool(seed)}
	st.srv, _, err = server.Open(server.Config{Workers: workers, StateDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.serveDone = make(chan error, 1)
	go func() { st.serveDone <- st.hs.Serve(ln) }()

	for i := 0; i < mixClients; i++ {
		c := newMixClient(i, st.url, st.pool)
		st.clients = append(st.clients, c)
		for k := 0; k < sessionsPerClient; k++ {
			ses := &mixSession{feed: newRowFeed(seed, sessionTag(i, k))}
			c.sessions = append(c.sessions, ses)
			if err := c.openSession(ses); err != nil {
				st.close()
				return nil, err
			}
		}
	}
	for _, c := range st.clients {
		for _, ses := range c.sessions {
			if err := c.awaitSession(ses); err != nil {
				st.close()
				return nil, err
			}
		}
	}
	return st, nil
}

// close stops the daemon and its HTTP server, waits for both, and removes
// the state directory.
func (st *mixState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, c := range st.clients {
		c.transport.CloseIdleConnections()
	}
	if st.hs != nil {
		if err := st.hs.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		<-st.serveDone
	}
	if err := st.srv.Shutdown(ctx); err != nil {
		log.Printf("daemon shutdown: %v", err)
	}
	os.RemoveAll(st.stateDir)
}

// jobRecord is what a client kept of one job for the checks after the
// window: the pool table it was cut from and the answer it got.
type jobRecord struct {
	base   int
	answer answer
}

// mixSession is one dataset session of a client.
type mixSession struct {
	id       string
	version  int // last profile version read
	feed     *rowFeed
	appended [][]string
}

func sessionTag(client, session int) string {
	return fmt.Sprintf("client%d/session%d", client, session)
}

type mixClient struct {
	idx       int
	url       string
	transport *http.Transport
	hc        *http.Client
	pool      *jobPool
	tr        *tracer
	trace     bool

	sessions    []*mixSession
	batchesSent int

	jobsSent int
	fresh    int
	last     []byte // CSV of the previous fresh job
	lastBase int
	ops      *atomic.Int64 // op ids for spans, shared by all clients
	// mach is sampled after every round, while the daemon is idle: the loop
	// has a single client.
	mach *machine

	attempts, failures int
	jobs               []jobRecord
	jobMS, batchMS     []float64
	rounds             [][2]time.Time
	spans              layerSpans
}

// layerSpans gathers what a traced client measured per layer.
type layerSpans struct {
	sums              layerSums
	missJobs, batches float64
	// server holds daemon-side span times by metric stem, such as
	// "server.job.queue_wait"; each stem is reported as _p50_ms and _p90_ms.
	server map[string][]float64
}

func newLayerSpans() layerSpans {
	return layerSpans{sums: layerSums{}, server: map[string][]float64{}}
}

func newMixClient(idx int, url string, pool *jobPool) *mixClient {
	// One connection per client: the loop is closed, so a client never has
	// two requests in flight.
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &mixClient{
		idx: idx, url: url, transport: t, hc: &http.Client{Transport: t},
		pool:  pool,
		spans: newLayerSpans(),
	}
}

// call sends one request and decodes a JSON response into v (when non-nil
// and the status is 2xx). The body is always drained and closed so the
// connection is reused.
func (c *mixClient) call(method, path string, body []byte, v any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 && v != nil {
		err = json.NewDecoder(resp.Body).Decode(v)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained only for connection reuse
	if err != nil {
		return resp, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return resp, nil
}

func (c *mixClient) openSession(ses *mixSession) error {
	csvText := append(encodeRows([][]string{ses.feed.cols}), encodeRows(ses.feed.base)...)
	body, _ := json.Marshal(map[string]string{
		"csv": string(csvText), "dataset": ses.feed.tag, "algorithm": core.StrategyMuds,
	})
	var view server.DatasetView
	resp, err := c.call(http.MethodPost, "/v1/datasets", body, &view)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("create session: status %d", resp.StatusCode)
	}
	ses.id = view.ID
	return nil
}

// awaitSession waits for the session's initial profile.
func (c *mixClient) awaitSession(ses *mixSession) error {
	for {
		view, err := c.datasetView(ses.id)
		if err != nil {
			return err
		}
		switch view.State {
		case server.DatasetReady:
			ses.version = view.Version
			return nil
		case server.DatasetFailed:
			return fmt.Errorf("session %s failed: %s", ses.id, view.Error)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *mixClient) datasetView(id string) (server.DatasetView, error) {
	var view server.DatasetView
	resp, err := c.call(http.MethodGet, "/v1/datasets/"+id, nil, &view)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("dataset %s: status %d", id, resp.StatusCode)
	}
	return view, err
}

// loop runs whole rounds until the deadline passes, one round every
// roundEvery: a round that ends early waits out the rest of its slot.
func (c *mixClient) loop(deadline time.Time) {
	for next := time.Now(); ; {
		time.Sleep(time.Until(next))
		start := time.Now()
		if !start.Before(deadline) {
			return
		}
		next = start.Add(roundEvery)
		for i := 0; i < roundOps; i++ {
			if i%2 == 0 {
				c.job()
			} else {
				c.batch()
			}
		}
		c.rounds = append(c.rounds, [2]time.Time{start, time.Now()})
		c.mach.sample()
	}
}

func (c *mixClient) fail(format string, args ...any) {
	c.failures++
	log.Printf("client %d: "+format, append([]any{c.idx}, args...)...)
}

// job submits one job and waits until its report is readable: inline for a
// result-cache hit, else after the job's event stream ends.
func (c *mixClient) job() {
	c.attempts++
	c.jobsSent++
	if c.jobsSent%4 != 0 {
		c.lastBase, c.last = c.pool.variant(c.idx + mixClients*c.fresh)
		c.fresh++
	}
	body, _ := json.Marshal(map[string]string{"csv": string(c.last), "dataset": "mix", "algorithm": core.StrategyMuds})
	op := int(c.ops.Add(1))

	start := time.Now()
	var view server.JobView
	resp, err := c.call(http.MethodPost, "/v1/jobs", body, &view)
	submitted := time.Now()
	if err == nil && resp.StatusCode == http.StatusAccepted {
		var checks layerSums
		if checks, err = c.follow(view.ID); err == nil {
			resp, err = c.call(http.MethodGet, "/v1/jobs/"+view.ID, nil, &view)
		}
		c.spans.sums["core.fdPhases_checks"] += checks["core.fdPhases_checks"]
	}
	end := time.Now()
	c.jobMS = append(c.jobMS, ms(end.Sub(start)))
	switch {
	case err != nil:
		c.fail("job: %v", err)
		return
	case resp.StatusCode/100 != 2:
		c.fail("job: status %d", resp.StatusCode)
		return
	case view.State != server.StateDone:
		c.fail("job %s ended %s: %s", view.ID, view.State, view.Error)
		return
	}
	a, err := answerOfReport(view.Result)
	if err != nil {
		c.fail("job %s: %v", view.ID, err)
		return
	}
	c.jobs = append(c.jobs, jobRecord{base: c.lastBase, answer: a})
	if c.trace {
		c.traceServerSpans(op, "job", view, start, submitted, end)
	}
}

// follow reads a job's event stream to its end. A traced client also sums
// the check deltas that arrive between phases (see layerSums.addChecks).
func (c *mixClient) follow(jobID string) (layerSums, error) {
	resp, err := c.hc.Get(c.url + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained only for connection reuse
		return nil, fmt.Errorf("events %s: status %d", jobID, resp.StatusCode)
	}
	if !c.trace {
		_, err = io.Copy(io.Discard, resp.Body)
		return nil, err
	}
	checks := layerSums{}
	phase, lastEnded := "", ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var e server.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("events %s: %w", jobID, err)
		}
		switch e.Type {
		case core.EventPhaseStart:
			phase = e.Phase
		case core.EventPhaseEnd:
			phase, lastEnded = "", e.Phase
		case core.EventChecks:
			if phase == "" {
				checks.addChecks(lastEnded, float64(e.Checks))
			}
		}
	}
	return checks, sc.Err()
}

// batch appends the next 100 rows of the client's next session and waits
// until the new profile version is readable.
func (c *mixClient) batch() {
	c.attempts++
	ses := c.sessions[c.batchesSent%len(c.sessions)]
	c.batchesSent++
	// The job's event stream closes before the daemon clears the session's
	// busy flag, so a batch sent the instant it closes can be refused with
	// 409. Waiting for the session to leave "appending" avoids that race;
	// NOTES.md records it as a daemon finding.
	for {
		view, err := c.datasetView(ses.id)
		if err != nil {
			c.fail("batch: %v", err)
			return
		}
		if view.State != server.DatasetAppending {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	rows := ses.feed.next(batchRows)
	body, _ := json.Marshal(map[string]string{"csv": string(encodeRows(rows))})
	op := int(c.ops.Add(1))

	start := time.Now()
	resp, err := c.call(http.MethodPost, "/v1/datasets/"+ses.id+"/batches", body, nil)
	submitted := time.Now()
	if err != nil {
		c.fail("batch: %v", err)
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		c.fail("batch refused: status %d", resp.StatusCode)
		return
	}
	ses.appended = append(ses.appended, rows...)
	jobID := strings.TrimPrefix(resp.Header.Get("Location"), "/v1/jobs/")
	var prof server.DatasetProfileView
	if _, err = c.follow(jobID); err == nil {
		resp, err = c.call(http.MethodGet, "/v1/datasets/"+ses.id+"/profile", nil, &prof)
	}
	end := time.Now()
	c.batchMS = append(c.batchMS, ms(end.Sub(start)))
	switch {
	case err != nil:
		c.fail("batch: %v", err)
		return
	case resp.StatusCode != http.StatusOK || prof.Version != ses.version+1:
		c.fail("batch: session %s profile status %d version %d, want version %d", ses.id, resp.StatusCode, prof.Version, ses.version+1)
		return
	}
	ses.version = prof.Version
	if c.trace {
		var view server.JobView
		if _, err := c.call(http.MethodGet, "/v1/jobs/"+jobID, nil, &view); err != nil {
			c.fail("batch trace: %v", err)
			return
		}
		c.traceServerSpans(op, "batch", view, start, submitted, end)
	}
}

// traceServerSpans records an operation's client span and the daemon-side
// spans its job view implies: submit (the POST), queue wait, run, and the
// part of the run outside the report's phases (report building, checkpoint).
func (c *mixClient) traceServerSpans(op int, kind string, view server.JobView, start, submitted, end time.Time) {
	s := &c.spans
	stem := "server." + kind + "."
	id := c.tr.add(0, op, kind, start, end, map[string]any{"job": view.ID, "cache_hit": view.CacheHit})
	c.tr.add(id, op, "server.submit", start, submitted, nil)
	s.server[stem+"submit"] = append(s.server[stem+"submit"], ms(submitted.Sub(start)))
	if view.StartedAt == nil || view.FinishedAt == nil || view.Result == nil {
		return // a result-cache hit never queues or runs
	}
	started, finished := *view.StartedAt, *view.FinishedAt
	c.tr.add(id, op, "server.queue_wait", view.SubmittedAt, started, nil)
	runID := c.tr.add(id, op, "server.run", started, finished, nil)
	run := ms(finished.Sub(started))
	phases := 0.0
	at := started
	for _, p := range view.Result.Phases {
		d := time.Duration(p.Seconds * float64(time.Second))
		c.tr.add(runID, op, p.Name, at, at.Add(d), nil)
		at = at.Add(d)
		phases += ms(d)
		s.sums.addPhase(p.Name, ms(d))
	}
	s.server[stem+"queue_wait"] = append(s.server[stem+"queue_wait"], ms(started.Sub(view.SubmittedAt)))
	s.server[stem+"run"] = append(s.server[stem+"run"], run)
	s.server[stem+"finish"] = append(s.server[stem+"finish"], run-phases)
	if kind == "job" {
		s.missJobs++
		s.sums.addCache(view.Result.Cache)
	} else {
		s.batches++
	}
}

// runServiceMix runs the service-mix workload.
func runServiceMix(ctx context.Context, cfg config) (*outcome, error) {
	setup := func() (*mixState, error) { return mixSetup(cfg.seed) }
	st, setups, err := timeSetups(setup, (*mixState).close)
	if err != nil {
		return nil, err
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()

	tr := newTracer(cfg.trace)
	var ops atomic.Int64
	for _, c := range st.clients {
		c.tr, c.trace, c.ops, c.mach = tr, cfg.trace, &ops, cfg.mach
	}
	before, err := scrapeMetrics(st.clients[0])
	if err != nil {
		return nil, err
	}
	alloc0, gc0 := runtimeCounters()
	runtime.GC()
	heap := startHeapSampler()
	deadline := time.Now().Add(cfg.window)
	var wg sync.WaitGroup
	for _, c := range st.clients {
		wg.Add(1)
		go func(c *mixClient) {
			defer wg.Done()
			c.loop(deadline)
		}(c)
	}
	wg.Wait()
	heap.Stop()
	alloc1, gc1 := runtimeCounters()
	after, err := scrapeMetrics(st.clients[0])
	if err != nil {
		return nil, err
	}
	stateBytes, err := dirBytes(st.stateDir)
	if err != nil {
		return nil, err
	}

	out := &outcome{tr: tr}
	var rounds, peaks, jobMS, batchMS []float64
	spans := newLayerSpans()
	for _, c := range st.clients {
		out.attempted += c.attempts
		out.failed += c.failures
		for _, r := range c.rounds {
			rounds = append(rounds, r[1].Sub(r[0]).Seconds())
			peaks = append(peaks, heap.peakMB(r[0], r[1]))
		}
		jobMS = append(jobMS, c.jobMS...)
		batchMS = append(batchMS, c.batchMS...)
		spans.merge(&c.spans)
	}
	out.failed += checkMix(ctx, cfg, st)
	pool := st.pool
	st.close()
	st = nil
	last, later, err := timeSetups(setup, (*mixState).close)
	if err != nil {
		return nil, err
	}
	last.close()
	setups = append(setups, later...)

	scale := cfg.mach.scale()
	if !cfg.trace {
		out.values = map[string]float64{
			"setup_s":      median(setups) * scale,
			"profile_s":    median(rounds) * scale,
			"peak_heap_mb": median(peaks),
			"job_p50_ms":   quantile(jobMS, 0.5) * scale,
			"job_p90_ms":   quantile(jobMS, 0.9) * scale,
			"batch_p50_ms": quantile(batchMS, 0.5) * scale,
			"batch_p90_ms": quantile(batchMS, 0.9) * scale,
		}
		return out, nil
	}
	opsDone := float64(out.attempted)
	v := spans.sums.finish(spans.missJobs, spans.batches)
	v["runtime.alloc_mb"] = (alloc1 - alloc0) / opsDone
	v["runtime.gc_cycles"] = (gc1 - gc0) / opsDone
	v["pli.build_ms"] = poolBuildMS(cfg, pool)
	for stem, xs := range spans.server {
		v[stem+"_p50_ms"] = quantile(xs, 0.5)
		v[stem+"_p90_ms"] = quantile(xs, 0.9)
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("profiled_result_cache_hits_total"), delta("profiled_result_cache_misses_total")
	if hits+misses > 0 {
		v["server.result_cache_hit_ratio"] = hits / (hits + misses)
	}
	v["server.admission_rejections"] = delta("profiled_admission_rejections_total")
	v["durable.wal_records_per_op"] = delta("profiled_wal_records_total") / opsDone
	if len(batchMS) > 0 {
		v["durable.checkpoints_per_batch"] = delta("profiled_checkpoints_written_total") / float64(len(batchMS))
	}
	v["durable.state_dir_bytes"] = float64(stateBytes)
	v["trace.profile_s"] = median(rounds) * scale
	v["machine.ref_ms"] = median(cfg.mach.refMS)
	out.values = v
	return out, nil
}

func (s *layerSpans) merge(o *layerSpans) {
	for k, v := range o.sums {
		s.sums[k] += v
	}
	s.missJobs += o.missJobs
	s.batches += o.batches
	for k, xs := range o.server {
		s.server[k] = append(s.server[k], xs...)
	}
}

// poolBuildMS is the mean time of a single-column PLI build on the pool's
// tables, measured after the window on the client side.
func poolBuildMS(cfg config, pool *jobPool) float64 {
	var total float64
	for k := range pool.bodies {
		rel, err := (csvSource{name: "pool", data: pool.baseCSV(k)}).Load()
		if err != nil {
			return 0
		}
		t0 := time.Now()
		cfg.opts().NewProvider(rel)
		total += ms(time.Since(t0))
	}
	return total / float64(len(pool.bodies))
}

// checkMix checks every job answer against the library's MUDS answer for
// its table, and every session against a from-scratch MUDS profile of all
// its rows. It returns the number of wrong answers.
func checkMix(ctx context.Context, cfg config, st *mixState) int {
	wrong := 0
	refs := map[int]answer{}
	for _, c := range st.clients {
		for _, j := range c.jobs {
			ref, ok := refs[j.base]
			if !ok {
				res, err := core.RunContext(ctx, core.StrategyMuds, csvSource{name: "pool", data: st.pool.baseCSV(j.base)}, cfg.opts(), nil)
				if err != nil {
					log.Printf("reference profile of pool table %d: %v", j.base, err)
					return wrong + 1
				}
				ref = answerOf(res)
				refs[j.base] = ref
			}
			if ref.digest() != j.answer.digest() {
				wrong++
				log.Printf("client %d: a job on pool table %d got a wrong answer", c.idx, j.base)
			}
		}
		for _, ses := range c.sessions {
			if err := c.checkSession(ctx, cfg, ses); err != nil {
				wrong++
				log.Printf("client %d: session %s check: %v", c.idx, ses.id, err)
			}
		}
	}
	return wrong
}

func (c *mixClient) checkSession(ctx context.Context, cfg config, ses *mixSession) error {
	var prof server.DatasetProfileView
	resp, err := c.call(http.MethodGet, "/v1/datasets/"+ses.id+"/profile", nil, &prof)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("profile: status %d", resp.StatusCode)
	}
	got, err := answerOfReport(prof.Report)
	if err != nil {
		return err
	}
	want, err := scratchAnswer(ctx, cfg, ses.feed.cols, ses.feed.base, ses.appended)
	if err != nil {
		return err
	}
	if want.digest() != got.digest() {
		return fmt.Errorf("profile version %d differs from a from-scratch profile of its rows", prof.Version)
	}
	return nil
}

// scrapeMetrics reads the daemon's /metrics page, summing labelled series
// by name.
func scrapeMetrics(c *mixClient) (map[string]float64, error) {
	resp, err := c.hc.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += f
	}
	return out, sc.Err()
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
