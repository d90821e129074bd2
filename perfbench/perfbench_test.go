package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"holistic/internal/core"
	"holistic/internal/dataset"
)

// inputDigest hashes every byte a workload's set-up generates for seed.
func inputDigest(t *testing.T, workload string, seed int64) [32]byte {
	t.Helper()
	h := sha256.New()
	switch workload {
	case "paper-wide":
		for _, d := range paperWideInputs(seed) {
			h.Write([]byte(d.name))
			h.Write(d.csv)
		}
		feed := newRowFeed(seed, "session")
		h.Write(encodeRows(feed.base))
		h.Write(encodeRows(feed.next(sessionChunkRows + batchRows)))
	case "service-mix":
		pool := newJobPool(seed)
		for n := 0; n < 2*jobPoolSize; n++ {
			_, csvText := pool.variant(n)
			h.Write(csvText)
		}
		for i := 0; i < mixClients; i++ {
			for k := 0; k < sessionsPerClient; k++ {
				feed := newRowFeed(seed, sessionTag(i, k))
				h.Write(encodeRows(feed.base))
				h.Write(encodeRows(feed.next(batchRows)))
			}
		}
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for w := range workloads {
		a, b := inputDigest(t, w, defaultSeed), inputDigest(t, w, defaultSeed)
		if a != b {
			t.Errorf("%s: two set-ups with seed %d generated different bytes", w, defaultSeed)
		}
		if c := inputDigest(t, w, claimSeed); c == a {
			t.Errorf("%s: seeds %d and %d generated the same bytes", w, defaultSeed, claimSeed)
		}
	}
}

func TestJobVariantsAreFreshButEquivalent(t *testing.T) {
	pool := newJobPool(defaultSeed)
	b0, first := pool.variant(0)
	b1, again := pool.variant(jobPoolSize)
	if b0 != b1 || bytes.Equal(first, again) {
		t.Fatalf("variants 0 and %d: bases %d/%d, equal bytes %v; want one base, distinct bytes", jobPoolSize, b0, b1, bytes.Equal(first, again))
	}
	ctx := context.Background()
	var answers []string
	for _, data := range [][]byte{first, again, pool.baseCSV(b0)} {
		res, err := core.RunContext(ctx, core.StrategyMuds, csvSource{name: "t", data: data}, core.Options{Workers: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, answerOf(res).digest())
	}
	if answers[0] != answers[1] || answers[1] != answers[2] {
		t.Fatalf("renamed variants profile differently: %v", answers)
	}
}

func TestReportAnswerMatchesResultAnswer(t *testing.T) {
	rel, err := dataset.UCISeeded("bridges", 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunRelationContext(context.Background(), core.StrategyMuds, rel, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := answerOfReport(core.NewReport(rel, res, false))
	if err != nil {
		t.Fatal(err)
	}
	if want := answerOf(res); got.digest() != want.digest() || len(want.fds) == 0 {
		t.Fatalf("report answer %s (%d FDs), result answer %s (%d FDs)", got.digest(), len(got.fds), want.digest(), len(want.fds))
	}
}

// TestTracedPLICountsAreTheJobsOwn checks that a traced library job adds the
// counters of each of its PLI providers once, and that a traced batch adds
// none: the session's provider reports running totals of its own.
func TestTracedPLICountsAreTheJobsOwn(t *testing.T) {
	ctx := context.Background()
	cfg := config{seed: defaultSeed, trace: true}
	st, err := libSetup(ctx, cfg, paperWideInputs)
	if err != nil {
		t.Fatal(err)
	}
	r := &libRun{cfg: cfg, st: st, tr: newTracer(true), jobMS: make([][]float64, 1), batchMS: make([][]float64, 1)}
	sums := layerSums{}
	for _, d := range st.datasets {
		if d.name != "abalone" {
			continue
		}
		res, _ := r.job(ctx, 0, d, core.StrategyMuds, sums)
		if res == nil {
			t.Fatal("job failed")
		}
		want := layerSums{}
		want.addCache(res.Cache)
		check := func(when string) {
			t.Helper()
			for _, k := range []string{"pli.intersections", "pli.fast_checks", "pli.materializations", "pli.hits", "pli.misses"} {
				if sums[k] != want[k] {
					t.Errorf("%s: %s = %v, the job's Result.Cache holds %v", when, k, sums[k], want[k])
				}
			}
		}
		if want["pli.fast_checks"]+want["pli.materializations"] == 0 {
			t.Fatal("the job checked nothing through its PLI provider")
		}
		check("after one job")
		if err := r.batch(ctx, 0, st.batches[0], sums); err != nil {
			t.Fatal(err)
		}
		if sums["incremental.append_ms"] == 0 {
			t.Error("the traced batch recorded no append phase")
		}
		check("after a batch")
		return
	}
	t.Fatal("no abalone dataset in the paper-wide job list")
}

func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
