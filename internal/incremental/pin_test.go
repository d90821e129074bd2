package incremental

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"holistic/internal/core"
	"holistic/internal/relation"
)

// TestRepairChecksPinned pins the checks of two appended batches of a MUDS
// session (revalidation plus the DUCC and per-RHS FD repair walks) and a
// digest of the UCCs and FDs after each, at workers 1 and 2. Like
// TestMudsChecksPinned, the checks move only when a repair walk's visiting
// order changes, the digests never.
func TestRepairChecksPinned(t *testing.T) {
	const cols = 10
	rng := rand.New(rand.NewSource(7))
	base := randomRows(rng, 400, cols, 0, "v")
	batches := [][][]string{randomRows(rng, 40, cols, 0, "v"), randomRows(rng, 40, cols, 0, "v")}
	want := []struct {
		checks int
		digest string
	}{{727, "33b1c873c353b6c0"}, {642, "4bffcbef610b3a5b"}}
	for _, workers := range []int{1, 2} {
		rel := mustRelation(t, base, cols, relation.Options{})
		prof, _, err := NewProfiler(context.Background(), rel, core.StrategyMuds, core.Options{Seed: 1, Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, batch := range batches {
			res, err := prof.AppendBatch(context.Background(), batch, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, phase := range []string{core.PhaseUCCRepair, core.PhaseFDRepair} {
				if !slices.ContainsFunc(res.Phases, func(p core.Phase) bool { return p.Name == phase }) {
					t.Fatalf("workers %d batch %d: no %s phase in %v", workers, i, phase, res.Phases)
				}
			}
			digest := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(res.UCCs, res.FDs))))[:16]
			if res.Checks != want[i].checks || digest != want[i].digest {
				t.Errorf("workers %d batch %d: %d checks, digest %s; want %d, %s",
					workers, i, res.Checks, digest, want[i].checks, want[i].digest)
			}
		}
	}
}
