package experiments

import (
	"bytes"
	"strings"
	"testing"

	"holistic/internal/core"
)

func TestFig6SmallScale(t *testing.T) {
	var buf bytes.Buffer
	ms, err := Fig6(&buf, []int{500, 1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 6 { // 2 row counts × 3 strategies
		t.Fatalf("got %d measurements", len(ms))
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("missing header")
	}
	// All strategies agree on the FD count per row step.
	for i := 0; i < len(ms); i += 3 {
		if ms[i].FDs != ms[i+1].FDs || ms[i].FDs != ms[i+2].FDs {
			t.Errorf("FD disagreement at step %d: %+v", i/3, ms[i:i+3])
		}
	}
}

func TestFig7SmallScale(t *testing.T) {
	var buf bytes.Buffer
	ms, err := Fig7(&buf, []int{9, 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 6 {
		t.Fatalf("got %d measurements", len(ms))
	}
	// Dependency counts must grow (or at least not shrink) with columns.
	if ms[3].FDs < ms[0].FDs {
		t.Errorf("FD count shrank with more columns: %d -> %d", ms[0].FDs, ms[3].FDs)
	}
}

func TestTable3Subset(t *testing.T) {
	var buf bytes.Buffer
	ms, err := Table3(&buf, []string{"iris", "balance"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 8 { // 2 datasets × 4 strategies
		t.Fatalf("got %d measurements", len(ms))
	}
	for i := 0; i < len(ms); i += 4 {
		for j := 1; j < 4; j++ {
			if ms[i].FDs != ms[i+j].FDs {
				t.Errorf("strategy FD disagreement on %s", ms[i].Dataset)
			}
		}
	}
	if !strings.Contains(buf.String(), "balance") {
		t.Error("missing dataset row")
	}
}

func TestFig8SmallScale(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fig8(&buf, 400, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FDs) == 0 {
		t.Error("no FDs found")
	}
	// MUDS' phases must all be present in the output, and the paper's
	// phases that the completion sweep replaced must be absent.
	for _, name := range []string{core.PhaseSpider, core.PhaseDucc,
		core.PhaseCalculateRZ, core.PhaseCompletionSweep} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("phase %s missing from output", name)
		}
	}
	for _, name := range []string{core.PhaseMinimizeFDs, core.PhaseGenerateShadowed, core.PhaseMinimizeShadowed} {
		if strings.Contains(buf.String(), name) {
			t.Errorf("removed phase %s in output", name)
		}
	}
}

func TestPropertySweep(t *testing.T) {
	var buf bytes.Buffer
	ms, err := PropertySweep(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 12 { // 4 configurations × 3 strategies
		t.Fatalf("got %d measurements", len(ms))
	}
	for i := 0; i < len(ms); i += 3 {
		if ms[i].FDs != ms[i+1].FDs || ms[i].FDs != ms[i+2].FDs {
			t.Errorf("strategies disagree on %s", ms[i].Dataset)
		}
	}
}
