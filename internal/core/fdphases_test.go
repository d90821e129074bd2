package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/dataset"
	"holistic/internal/fd"
	"holistic/internal/pli"
	"holistic/internal/relation"
	"holistic/internal/settrie"
	"holistic/internal/ucc"
)

// fullShadowedTasks is the reference for generateShadowedTasks: every round
// pairs every stored left-hand side with every stored connector, whatever
// changed since the previous round.
func fullShadowedTasks(m *mudsFD) []shadowTask {
	m.changed = make(map[bitset.Set]bool)
	lhss := m.store.LHSs()
	var all settrie.Index
	for _, lhs := range lhss {
		all.Add(lhs)
	}
	targets := make(map[bitset.Set]bitset.Set)
	for _, flhs := range lhss {
		m.addShadowTargets(targets, flhs, &all)
	}
	return m.shadowTasks(targets)
}

// fdPhasesUpToShadowed runs MUDS on rel sequentially up to the shadowed-FD
// fixpoint: DUCC, the constant columns, minimizeFDs and calculateRZ.
func fdPhasesUpToShadowed(t *testing.T, rel *relation.Relation) *mudsFD {
	t.Helper()
	p := pli.NewProvider(rel, nil)
	uccs, err := ucc.DuccContext(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := fd.NewStore()
	constants := fd.ConstantColumns(p)
	constants.ForEach(func(a int) { store.Add(bitset.Set{}, a) })
	m := newMudsFD(p, rel.AllColumns().Diff(constants), uccs.Minimal, store, 1)
	m.workers = 1
	m.minimizeFDs()
	m.calculateRZ()
	return m
}

// shadowedRounds runs the shadowed-FD fixpoint on rel twice in lockstep,
// semi-naively and with the full-regeneration reference, and requires every
// round to yield the same tasks after the same checks. It returns the
// number of rounds.
func shadowedRounds(t *testing.T, rel *relation.Relation) int {
	t.Helper()
	delta, full := fdPhasesUpToShadowed(t, rel), fdPhasesUpToShadowed(t, rel)
	for round := 1; ; round++ {
		got, want := delta.generateShadowedTasks(), fullShadowedTasks(full)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round %d: tasks\n got %v\nwant %v", rel.Name(), round, got, want)
		}
		if delta.checks != full.checks {
			t.Fatalf("%s round %d: %d checks, want %d", rel.Name(), round, delta.checks, full.checks)
		}
		before := delta.store.Count()
		delta.minimizeShadowed(got)
		full.minimizeShadowed(want)
		if !reflect.DeepEqual(delta.store.All(), full.store.All()) {
			t.Fatalf("%s round %d: stored FDs differ", rel.Name(), round)
		}
		if delta.store.Count() == before {
			return round
		}
	}
}

// TestShadowedDeltaMatchesFullRegeneration checks that the semi-naive
// shadowed-FD rounds generate exactly the tasks of a full regeneration, on
// random relations of the fuzz generator, a voter table and the echocard
// table. Only rounds after the first differ from a full regeneration, so
// the test requires some relations to need them.
func TestShadowedDeltaMatchesFullRegeneration(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	multi := 0
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+r.Intn(100))
		r.Read(data)
		rel := fuzzRelation(t, data)
		if rel == nil || rel.NumRows() < 2 {
			continue
		}
		if shadowedRounds(t, rel) > 1 {
			multi++
		}
	}
	if multi < 10 {
		t.Errorf("only %d random relations needed a second shadowed round", multi)
	}
	if rounds := shadowedRounds(t, dataset.NCVoter(500, 10)); rounds < 3 {
		t.Errorf("NCVoter(500, 10): %d shadowed rounds, want at least 3", rounds)
	}
	// On echocard a fourth round finds a task only through an unchanged
	// left-hand side paired with a changed connector.
	echocard, err := dataset.UCI("echocard")
	if err != nil {
		t.Fatal(err)
	}
	if rounds := shadowedRounds(t, echocard); rounds < 4 {
		t.Errorf("echocard: %d shadowed rounds, want at least 4", rounds)
	}
}

// TestMudsChecksPinned pins the validity checks of MUDS and a digest of its
// FDs at one and two workers. Memoising the UCC unions of minimizeFDs and
// running the shadowed fixpoint semi-naively changed no check: ionosphere
// 504, ncvoter 1,347. Enumerating the set families in insertion order
// instead of prefix-tree order changes the walk and queue orders and with
// them the checks (ncvoter 1,347 → 1,355), never the FDs.
func TestMudsChecksPinned(t *testing.T) {
	for _, tc := range []struct {
		rel    *relation.Relation
		checks int
		digest string
	}{
		{dataset.Ionosphere(12, 351), 504, "7fa02529b329c2c4"},
		{dataset.NCVoter(500, 10), 1355, "42cfdf544c736b4b"},
	} {
		for _, workers := range []int{1, 2} {
			res := Muds(tc.rel, Options{Seed: 1, Workers: workers})
			digest := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(res.FDs))))[:16]
			if res.Checks != tc.checks || digest != tc.digest {
				t.Errorf("%s workers %d: %d checks, FD digest %s; want %d, %s",
					tc.rel.Name(), workers, res.Checks, digest, tc.checks, tc.digest)
			}
		}
	}
}
