#!/bin/sh
# verify.sh — the full local verification gate: formatting, vet, build, and
# the complete test suite under the race detector. Run from the repo root.
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
else
	echo "staticcheck not installed; skipping (CI runs it)"
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== benchmark module (perfbench: vet + test) =="
(cd perfbench && go vet ./... && go test ./...)

echo "== worker-count equivalence (workers=1 vs N) =="
go test -race -count=1 -run 'TestWorkerCountEquivalence|TestParallelMudsCancellation' ./internal/core/
go test -race -count=1 -run 'TestQuickLevelWiseWorkersAgree|TestLevelWiseChecksPinned' ./internal/fd/
go test -race -count=1 -run 'TestMudsChecksPinned|TestShadowedDeltaMatchesFullRegeneration' ./internal/core/

echo "== CSV fuzz smoke =="
go test -run='^$' -fuzz='^FuzzReadCSV$' -fuzztime=10s ./internal/relation/

echo "== PLI differential fuzz smoke (flat layout vs reference) =="
go test -run='^$' -fuzz='^FuzzPLIEquivalence$' -fuzztime=10s ./internal/pli/

echo "== check-kernel differential fuzz smoke (fast path vs materializing) =="
go test -run='^$' -fuzz='^FuzzCheckEquivalence$' -fuzztime=10s ./internal/pli/

echo "== hitting-set differential fuzz smoke (MMCS vs brute-force transversals) =="
go test -run='^$' -fuzz='^FuzzMinimalHittingSets$' -fuzztime=10s ./internal/walker/

echo "== set-family differential fuzz smoke (column-bitmap families vs linear scan) =="
go test -run='^$' -fuzz='^FuzzSetFamilyMatchesLinearScan$' -fuzztime=10s ./internal/settrie/

echo "== PLI bench smoke (compile + one iteration) =="
go test -run='^$' -bench 'Intersect|Check' -benchtime=1x ./internal/pli/

echo "== lattice bench smoke (compile + one iteration) =="
go test -run='^$' -bench . -benchtime=1x ./internal/bitset ./internal/settrie ./internal/walker ./internal/core ./internal/fd

echo "== fast-path config equivalence (race) =="
go test -race -count=1 -run 'TestFastPathConfigEquivalence' ./internal/core/

echo "== validation bench smoke (5k rows) =="
go run ./cmd/experiments -validate -validate-rows 5000 -validate-json ''

echo "== incremental differential fuzz smoke (append path vs from-scratch) =="
go test -run='^$' -fuzz='^FuzzIncrementalEquivalence$' -fuzztime=10s ./internal/incremental/

echo "== incremental bench smoke (5k rows) =="
go run ./cmd/experiments -incremental -incremental-rows 5000 -incremental-json ''

echo "== chaos suite (fault injection, race) =="
go test -race -count=1 -run 'TestChaos|TestJobDeadlinePartialResult' ./internal/server/

echo "== WAL fault-injection and torn-write suite (race) =="
go test -race -count=1 ./internal/durable/

echo "== restart-semantics suite (race) =="
go test -race -count=1 -run 'TestRestart|TestTerminalJob' ./internal/server/

echo "== overload-resilience suite (admission, breakers, watermarks, race) =="
go test -race -count=1 -run 'TestAdaptiveAdmission|TestAdmissionEstimate|TestDeadlineFromAdmission|TestIdempoten|TestCircuitBreaker|TestMemWatermark|TestOverload' ./internal/server/

echo "== profiled service smoke test =="
./scripts/smoke_profiled.sh

echo "== profiled chaos test =="
./scripts/chaos_profiled.sh

echo "== profiled kill -9 recovery test =="
./scripts/crash_profiled.sh

echo "== profiled overload flood test =="
./scripts/overload_profiled.sh

echo "verify.sh: all checks passed"
