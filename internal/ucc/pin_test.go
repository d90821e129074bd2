package ucc

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"holistic/internal/dataset"
	"holistic/internal/pli"
	"holistic/internal/relation"
)

// TestDuccChecksPinned pins DUCC's uniqueness checks and a digest of its
// minimal UCCs and maximal non-UCCs over caches of one and two shards (the
// engine's cache at workers 1 and 2). The checks move whenever the walk's
// visiting order changes; how a check is answered (from the cache or from
// a PLI the walk holds) must move neither.
func TestDuccChecksPinned(t *testing.T) {
	hepatitis, err := dataset.UCI("hepatitis")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rel    *relation.Relation
		checks int
		digest string
	}{
		{dataset.Ionosphere(12, 351), 100, "c9f0b01467c76568"},
		{dataset.NCVoter(500, 10), 228, "94265aa6909c845b"},
		{hepatitis, 6524, "c7d9432f900ec0d6"},
	} {
		for _, workers := range []int{1, 2} {
			p := pli.NewProvider(tc.rel, pli.NewCache(workers, 0, pli.DefaultCacheBytes))
			res := Ducc(p, 1)
			digest := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(res.Minimal, res.MaximalNonUnique))))[:16]
			if res.Checks != tc.checks || digest != tc.digest {
				t.Errorf("%s workers %d: %d checks, digest %s; want %d, %s",
					tc.rel.Name(), workers, res.Checks, digest, tc.checks, tc.digest)
			}
		}
	}
}
