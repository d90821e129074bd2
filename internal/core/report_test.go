package core

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestReportRoundTrip(t *testing.T) {
	rel := mustRel(t, []string{"id", "code", "desc"}, [][]string{
		{"1", "a", "alpha"},
		{"2", "a", "alpha"},
		{"3", "b", "beta"},
	})
	res := muds(rel, Options{Seed: 1})
	rep := NewReport(rel, res, true)

	if rep.Rows != 3 || len(rep.Columns) != 3 {
		t.Fatalf("shape: %+v", rep)
	}
	if len(rep.UCCs) == 0 || rep.UCCs[0][0] != "id" {
		t.Errorf("UCCs = %v", rep.UCCs)
	}
	foundCodeDesc := false
	for _, f := range rep.FDs {
		if len(f.LHS) == 1 && f.LHS[0] == "code" && f.RHS == "desc" {
			foundCodeDesc = true
		}
	}
	if !foundCodeDesc {
		t.Errorf("code → desc missing from %v", rep.FDs)
	}
	if len(rep.Stats) != 3 {
		t.Errorf("stats = %v", rep.Stats)
	}
	if rep.TotalSeconds <= 0 {
		t.Error("total must be positive")
	}

	// JSON round trip.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Dataset != rep.Dataset || len(back.FDs) != len(rep.FDs) {
		t.Error("round trip mismatch")
	}
	if !strings.Contains(string(data), `"uccs"`) {
		t.Error("expected uccs key in JSON")
	}
}

func TestReportWithoutStats(t *testing.T) {
	rel := mustRel(t, []string{"a"}, [][]string{{"1"}, {"2"}})
	rep := NewReport(rel, muds(rel, Options{}), false)
	if rep.Stats != nil {
		t.Error("stats should be omitted")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"stats"`) {
		t.Error("stats key should be omitted from JSON")
	}
	// Empty dependency lists serialise as [] rather than null.
	if strings.Contains(string(data), `"inds":null`) {
		t.Error("inds should serialise as []")
	}
}
