package experiments

import (
	"context"
	"testing"

	"holistic/internal/core"
	"holistic/internal/dataset"
	"holistic/internal/relation"
)

// The golden tests pin the dependency counts of the deterministic synthetic
// datasets. They protect the generators and the discovery pipeline against
// silent regressions: a change to either shows up as a count drift here
// before it distorts EXPERIMENTS.md.

// muds profiles rel with MUDS at seed 1.
func muds(t *testing.T, rel *relation.Relation) *core.Result {
	t.Helper()
	res, err := core.RunRelationContext(context.Background(), core.StrategyMuds, rel, core.Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func counts(t *testing.T, rel *relation.Relation) (inds, uccs, fds int) {
	t.Helper()
	res := muds(t, rel)
	return len(res.INDs), len(res.UCCs), len(res.FDs)
}

func TestGoldenUniprot(t *testing.T) {
	inds, uccs, fds := counts(t, dataset.Uniprot(5000))
	if uccs == 0 || fds == 0 {
		t.Fatalf("unexpectedly empty: inds=%d uccs=%d fds=%d", inds, uccs, fds)
	}
	// The uniprot slice carries a moderate FD web (tens, not thousands) and
	// a small number of composite keys.
	if fds < 20 || fds > 400 {
		t.Errorf("uniprot FDs = %d, expected a moderate count", fds)
	}
	if uccs > 60 {
		t.Errorf("uniprot UCCs = %d, expected few keys", uccs)
	}
}

func TestGoldenIonosphere(t *testing.T) {
	_, uccs, fds := counts(t, dataset.Ionosphere(14, 351))
	// The crossed core admits exactly one pure-core key; derived signals
	// add a bounded number of mixed keys and large-lhs FDs.
	if uccs < 1 || uccs > 120 {
		t.Errorf("ionosphere UCCs = %d, expected a small key set", uccs)
	}
	if fds < 5 || fds > 800 {
		t.Errorf("ionosphere FDs = %d, expected a bounded count", fds)
	}
}

func TestGoldenBalanceChessNursery(t *testing.T) {
	for _, name := range []string{"balance", "chess", "nursery"} {
		rel, err := dataset.UCI(name)
		if err != nil {
			t.Fatal(err)
		}
		_, _, fds := counts(t, rel)
		if fds != 1 {
			t.Errorf("%s FDs = %d, want exactly 1 (fully crossed attributes)", name, fds)
		}
	}
}

func TestGoldenLetter(t *testing.T) {
	rel, err := dataset.UCI("letter")
	if err != nil {
		t.Fatal(err)
	}
	_, uccs, fds := counts(t, rel)
	// letter's shape target: few FDs with large left-hand sides, keys deep.
	if fds < 5 || fds > 100 {
		t.Errorf("letter FDs = %d, want a small count (paper: 61)", fds)
	}
	if uccs < 1 || uccs > 30 {
		t.Errorf("letter UCCs = %d, want very few deep keys", uccs)
	}
	res := muds(t, rel)
	maxLHS := 0
	for _, f := range res.FDs {
		if f.LHS.Len() > maxLHS {
			maxLHS = f.LHS.Len()
		}
	}
	if maxLHS < 5 {
		t.Errorf("letter max lhs = %d, want large left-hand sides", maxLHS)
	}
}

func TestGoldenINDsNonTrivial(t *testing.T) {
	// The ionosphere generator's low-cardinality columns contain each other
	// value-wise, so the IND discovery has real work to do.
	rel := dataset.Ionosphere(12, 351)
	inds, _, _ := counts(t, rel)
	if inds == 0 {
		t.Error("expected some unary INDs on low-cardinality data")
	}
}
