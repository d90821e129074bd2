#!/bin/sh
# verify.sh — the full verification gate, locally and in CI: formatting,
# vet, staticcheck, build, the complete test suite under the race detector,
# and the targeted suites, fuzz smokes and service scripts below. Run from
# the repo root.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
elif [ -n "${CI:-}" ]; then
	echo "staticcheck not installed; CI must run it" >&2
	exit 1
else
	echo "staticcheck not installed; skipping (CI runs it)"
fi

echo "== go build =="
go build ./...

echo "== test-only oracle package stays out of every binary =="
if go list -deps . ./cmd/... ./examples/... | grep -qx 'holistic/internal/oracle'; then
	echo "a non-test package imports holistic/internal/oracle" >&2
	exit 1
fi

echo "== every exported internal func has a production caller (go/types scan) =="
go test -count=1 -run 'TestInternalExportsHaveCallers' .

echo "== go test -race =="
go test -race ./...

echo "== benchmark module (perfbench: vet + test) =="
(cd perfbench && go vet ./... && go test ./...)

echo "== worker-count equivalence (workers=1 vs N) =="
go test -race -count=1 -run 'TestWorkerCountEquivalence|TestParallelMudsCancellation' ./internal/core/
go test -race -count=1 -run 'TestQuickLevelWiseWorkersAgree|TestLevelWiseChecksPinned' ./internal/fd/
go test -race -count=1 -run 'TestMudsChecksPinned' ./internal/core/
go test -race -count=5 -run 'TestMudsContextDeadlineInFDPhases' ./internal/core/
go test -race -count=1 -run 'TestDuccChecksPinned' ./internal/ucc/
go test -race -count=1 -run 'TestRepairChecksPinned' ./internal/incremental/
go test -race -count=1 -run 'TestConcurrentWalks' ./internal/pli/

echo "== CSV fuzz smoke =="
go test -run='^$' -fuzz='^FuzzReadCSV$' -fuzztime=10s ./internal/relation/

echo "== PLI differential fuzz smoke (flat layout vs reference) =="
go test -run='^$' -fuzz='^FuzzPLIEquivalence$' -fuzztime=10s ./internal/pli/

echo "== check-kernel differential fuzz smoke (fast path vs materializing) =="
go test -run='^$' -fuzz='^FuzzCheckEquivalence$' -fuzztime=10s ./internal/pli/

echo "== walk check-path differential fuzz smoke (held PLI vs planner) =="
go test -run='^$' -fuzz='^FuzzWalkCheckEquivalence$' -fuzztime=10s ./internal/pli/

echo "== hitting-set differential fuzz smoke (MMCS vs brute-force transversals) =="
go test -run='^$' -fuzz='^FuzzMinimalHittingSets$' -fuzztime=10s ./internal/walker/

echo "== set-family differential fuzz smoke (column-bitmap families vs linear scan) =="
go test -run='^$' -fuzz='^FuzzSetFamilyMatchesLinearScan$' -fuzztime=10s ./internal/settrie/

echo "== every strategy's UCCs vs the agree-set oracle on hepatitis (no race: ~23 s under -race) =="
go test -count=1 -run 'TestStrategiesMatchAgreeSetOracle' ./internal/core/

echo "== MUDS differential fuzz smoke (MUDS vs brute-force oracles) =="
go test -run='^$' -fuzz='^FuzzMudsMatchesOracles$' -fuzztime=10s ./internal/core/

echo "== PLI bench smoke (compile + one iteration) =="
go test -run='^$' -bench 'Intersect|Check' -benchtime=1x ./internal/pli/

echo "== lattice bench smoke (compile + one iteration) =="
go test -run='^$' -bench . -benchtime=1x ./internal/bitset ./internal/settrie ./internal/walker ./internal/core ./internal/fd ./internal/incremental

echo "== fast-path config equivalence (race) =="
go test -race -count=1 -run 'TestFastPathConfigEquivalence' ./internal/core/

echo "== fast-path agreement on the 5k-row abalone and ncvoter generators (race) =="
go test -race -count=1 -run 'TestProviderFastPathsAgainstGet' ./internal/pli/

echo "== incremental differential fuzz smoke (append path vs from-scratch) =="
go test -run='^$' -fuzz='^FuzzIncrementalEquivalence$' -fuzztime=10s ./internal/incremental/

echo "== incremental agreement on the 5k-row uniprot and ncvoter generators (race) =="
go test -race -count=1 -run 'TestIncrementalEquivalence' ./internal/incremental/

echo "== chaos suite (fault injection, race) =="
go test -race -count=1 -run 'TestChaos|TestJobDeadlinePartialResult' ./internal/server/

echo "== WAL fault-injection and torn-write suite (race) =="
go test -race -count=1 ./internal/durable/

echo "== restart-semantics suite (race) =="
go test -race -count=1 -run 'TestRestart|TestTerminalJob' ./internal/server/

echo "== overload-resilience suite (admission, breakers, watermarks, race) =="
go test -race -count=1 -run 'TestAdaptiveAdmission|TestDeadlineFromAdmission|TestIdempoten|TestCircuitBreaker|TestMemWatermark|TestOverload' ./internal/server/

echo "== deadline-from-admission repeat (race) =="
go test -race -count=10 -run 'TestDeadlineFromAdmission' ./internal/server/

echo "== profiled service smoke test =="
./scripts/smoke_profiled.sh

echo "== profiled chaos test =="
./scripts/chaos_profiled.sh

echo "== profiled kill -9 recovery test =="
./scripts/crash_profiled.sh

echo "== profiled overload flood test =="
./scripts/overload_profiled.sh

echo "verify.sh: all checks passed"
