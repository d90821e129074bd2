package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"holistic/internal/bitset"
	"holistic/internal/core"
	"holistic/internal/relation"
)

// answer is the order-independent form of one profiling result, with columns
// named by position so that results from the library and from the daemon's
// JSON reports compare directly. A family the strategy does not report is
// nil.
type answer struct {
	inds, uccs, fds []string
}

// fullAnswer reports whether alg discovers all three families; TANE finds
// FDs only.
func fullAnswer(alg string) bool { return alg != core.StrategyTane }

func answerOf(res *core.Result) answer {
	a := answer{fds: []string{}}
	for _, f := range res.FDs {
		a.fds = append(a.fds, fdKey(f.LHS.Columns(), f.RHS))
	}
	if fullAnswer(res.Algorithm) {
		a.inds, a.uccs = []string{}, []string{}
		for _, d := range res.INDs {
			a.inds = append(a.inds, fmt.Sprintf("%d<%d", d.Dependent, d.Referenced))
		}
		for _, u := range res.UCCs {
			a.uccs = append(a.uccs, setKey(u.Columns()))
		}
	}
	return a.sorted()
}

// answerOfReport reads a full (MUDS) answer out of a daemon report.
func answerOfReport(rep *core.Report) (answer, error) {
	if rep == nil {
		return answer{}, fmt.Errorf("no report")
	}
	if rep.Partial {
		return answer{}, fmt.Errorf("partial report")
	}
	pos := make(map[string]int, len(rep.Columns))
	for i, c := range rep.Columns {
		pos[c] = i
	}
	cols := func(names []string) ([]int, error) {
		out := make([]int, len(names))
		for i, n := range names {
			p, ok := pos[n]
			if !ok {
				return nil, fmt.Errorf("report names unknown column %q", n)
			}
			out[i] = p
		}
		return out, nil
	}
	a := answer{inds: []string{}, uccs: []string{}, fds: []string{}}
	for _, d := range rep.INDs {
		dr, err := cols([]string{d.Dependent, d.Referenced})
		if err != nil {
			return a, err
		}
		a.inds = append(a.inds, fmt.Sprintf("%d<%d", dr[0], dr[1]))
	}
	for _, u := range rep.UCCs {
		c, err := cols(u)
		if err != nil {
			return a, err
		}
		a.uccs = append(a.uccs, setKey(c))
	}
	for _, f := range rep.FDs {
		c, err := cols(append(append([]string(nil), f.LHS...), f.RHS))
		if err != nil {
			return a, err
		}
		a.fds = append(a.fds, fdKey(c[:len(c)-1], c[len(c)-1]))
	}
	return a.sorted(), nil
}

// scratchAnswer is the answer of a from-scratch MUDS profile of a session's
// rows: its base chunk followed by every accepted batch. A session's profile
// must equal it.
func scratchAnswer(ctx context.Context, cfg config, cols []string, chunks ...[][]string) (answer, error) {
	var rows [][]string
	for _, c := range chunks {
		rows = append(rows, c...)
	}
	rel, err := relation.New("session", cols, rows)
	if err != nil {
		return answer{}, err
	}
	res, err := core.RunRelationContext(ctx, core.StrategyMuds, rel, cfg.opts(), nil)
	if err != nil {
		return answer{}, err
	}
	return answerOf(res), nil
}

func setKey(cols []int) string {
	return setKeyOf(bitset.New(cols...))
}

func setKeyOf(s bitset.Set) string {
	parts := make([]string, 0, s.Len())
	for _, c := range s.Columns() {
		parts = append(parts, fmt.Sprint(c))
	}
	return strings.Join(parts, ",")
}

func fdKey(lhs []int, rhs int) string { return fmt.Sprintf("%s>%d", setKey(lhs), rhs) }

func (a answer) sorted() answer {
	for _, l := range [][]string{a.inds, a.uccs, a.fds} {
		sort.Strings(l)
	}
	return a
}

// agrees reports whether b matches a on every family both report.
func (a answer) agrees(b answer) bool {
	if !equal(a.fds, b.fds) {
		return false
	}
	if a.uccs != nil && b.uccs != nil && !equal(a.uccs, b.uccs) {
		return false
	}
	return a.inds == nil || b.inds == nil || equal(a.inds, b.inds)
}

func equal(x, y []string) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// digest is a short content hash of the answer.
func (a answer) digest() string {
	h := sha256.New()
	for _, l := range [][]string{a.inds, a.uccs, a.fds} {
		fmt.Fprintf(h, "%d\n%s\n", len(l), strings.Join(l, ";"))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// defaultSeed is the seed a run uses unless told otherwise; claimSeed is
// the second seed on which later changes confirm a claim.
const (
	defaultSeed = 1
	claimSeed   = 2
)

// pinnedDigests are the digests of each library dataset's full answer (its
// reference strategy's). The seed only reorders rows, so they hold for every
// seed; a change that alters one of them changed what the profiler
// discovers.
var pinnedDigests = map[string]string{
	"ionosphere-351x18": "7eeca5336f9b85c1",
	"ionosphere-351x16": "fdc971d2f85a060b",
	"ncvoter-2000x16":   "5dd487230297a079",
	"abalone":           "b7cfb7f621b8de2c",
	"b-cancer":          "a0455bf7a3ad6689",
	"bridges":           "63f76e102fd75a4c",
	"echocard":          "23269effe7ab18e9",
}
