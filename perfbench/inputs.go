package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"math/rand"

	"holistic/internal/dataset"
	"holistic/internal/relation"
)

// This file builds every input the benchmark feeds the profiler. The tables
// come from the seeded generators in internal/dataset, each drawn once with a
// fixed generator seed. The workload seed shuffles the rows of every table,
// so the same seed gives byte-identical CSV, another seed gives other bytes,
// and every seed profiles the same dependencies. Drawing new tables per seed
// would move the cost of the FD-heavy tables (adult, ncvoter) by a fifth from
// seed to seed, more than the regressions the benchmark must catch; the
// variety of dependency structure comes from the many tables instead.

// libDataset is one dataset of a library workload's job list: its CSV bytes
// and the strategies run on it, in order. The first strategy is the reference
// the others must agree with.
type libDataset struct {
	name string
	csv  []byte
	algs []string
}

var threeAlgs = []string{"muds", "hfun", "tane"}

// paperWideInputs is the column-heavy job list: few rows, many columns.
func paperWideInputs(seed int64) []libDataset {
	return []libDataset{
		libTable("ionosphere-351x18", dataset.Ionosphere(18, 351), seed, []string{"muds"}),
		libTable("ionosphere-351x16", dataset.Ionosphere(16, 351), seed, []string{"hfun"}),
		libTable("ncvoter-2000x16", dataset.NCVoter(2000, 16), seed, []string{"muds"}),
		libTable("abalone", uci("abalone"), seed, threeAlgs),
		libTable("b-cancer", uci("b-cancer"), seed, threeAlgs),
		libTable("bridges", uci("bridges"), seed, threeAlgs),
		libTable("echocard", uci("echocard"), seed, threeAlgs),
	}
}

func libTable(name string, rel *relation.Relation, seed int64, algs []string) libDataset {
	rows := shuffled(rel.Rows(), seed, name)
	return libDataset{name, append(encodeRows([][]string{rel.ColumnNames()}), encodeRows(rows)...), algs}
}

func uci(name string) *relation.Relation {
	rel, err := dataset.UCI(name)
	if err != nil {
		panic(err) // the names above are fixed members of dataset.UCITable
	}
	return rel
}

// shuffled permutes rows in place, by the workload seed and the table's tag.
func shuffled(rows [][]string, seed int64, tag string) [][]string {
	rng := rand.New(rand.NewSource(subSeed(seed, tag)))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// Session rows: a dataset session starts from one chunk of uniprot-like rows
// and grows by batches cut from further chunks of the same generator, each
// chunk drawn with its own generator seed and shuffled by the workload seed.
const (
	sessionChunkRows = 10000
	batchRows        = 100
)

// rowFeed hands out the rows of one session: the base chunk, then batches.
// Batch chunks are generated on demand, so a session can grow for as long as
// a run lasts.
type rowFeed struct {
	seed  int64
	tag   string
	chunk int
	cols  []string
	base  [][]string
	rows  [][]string // generated batch rows not handed out yet
}

func newRowFeed(seed int64, tag string) *rowFeed {
	f := &rowFeed{seed: seed, tag: tag}
	rel := f.generate()
	f.cols = rel.ColumnNames()
	f.base = shuffled(rel.Rows(), seed, tag+"/chunk0")
	return f
}

func (f *rowFeed) generate() *relation.Relation {
	rel := dataset.UniprotSeeded(sessionChunkRows, subSeed(0, fmt.Sprintf("%s/chunk%d", f.tag, f.chunk)))
	f.chunk++
	return rel
}

func (f *rowFeed) fill() {
	tag := fmt.Sprintf("%s/chunk%d", f.tag, f.chunk)
	f.rows = append(f.rows, shuffled(f.generate().Rows(), f.seed, tag)...)
}

// next returns the next n batch rows of the feed.
func (f *rowFeed) next(n int) [][]string {
	for len(f.rows) < n {
		f.fill()
	}
	out := f.rows[:n:n]
	f.rows = f.rows[n:]
	return out
}

// jobPool is the set of base tables the service-mix jobs are cut from. A
// fresh job is one of them with a unique name on its first column: the bytes
// (and so the result-cache key) are new while the profiling work is that of
// a 2,000-row seeded table.
type jobPool struct {
	header []string
	bodies [][]byte // CSV rows without the header, one per base table
}

const (
	jobPoolSize = 16
	jobRows     = 2000
)

func newJobPool(seed int64) *jobPool {
	p := &jobPool{}
	for k := 0; k < jobPoolSize; k++ {
		tag := fmt.Sprintf("job%d", k)
		rel := dataset.UniprotSeeded(jobRows, subSeed(0, tag))
		p.header = rel.ColumnNames()
		p.bodies = append(p.bodies, encodeRows(shuffled(rel.Rows(), seed, tag)))
	}
	return p
}

// variant returns the CSV of fresh job n: base table n mod the pool size,
// with the first column renamed after n.
func (p *jobPool) variant(n int) (base int, csvText []byte) {
	base = n % len(p.bodies)
	header := append([]string(nil), p.header...)
	header[0] = fmt.Sprintf("%s_%d", header[0], n)
	var b bytes.Buffer
	b.Write(encodeRows([][]string{header}))
	b.Write(p.bodies[base])
	return base, b.Bytes()
}

// baseCSV returns base table k with its original header.
func (p *jobPool) baseCSV(k int) []byte {
	return append(encodeRows([][]string{p.header}), p.bodies[k]...)
}

// subSeed derives the seed of one input's generator or shuffle from a base
// seed and a tag. It never returns 0, which the generators read as
// "canonical seed".
func subSeed(seed int64, tag string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, tag)
	return int64(h.Sum64()>>1) | 1
}

func encodeRows(rows [][]string) []byte {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	_ = w.WriteAll(rows) // writes to a bytes.Buffer cannot fail
	return b.Bytes()
}
