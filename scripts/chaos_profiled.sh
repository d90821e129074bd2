#!/bin/sh
# chaos_profiled.sh — fault-injection run against a live profiled daemon:
# arm injection points via HOLISTIC_FAULTS, then prove the service contains
# panics (failed jobs, captured stacks, no cache poisoning), reports itself
# degraded after repeated panics and recovers on the next clean job, maps a
# failed admit-journal write to 503 + Retry-After and admits the next job,
# and still drains cleanly on SIGTERM.
#
# Requires curl and jq. Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

for tool in curl jq; do
	if ! command -v "$tool" >/dev/null 2>&1; then
		echo "chaos_profiled: $tool not found, skipping" >&2
		exit 0
	fi
done

workdir=$(mktemp -d)
server_pid=""
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

echo "== build =="
go build -o "$workdir/profiled" ./cmd/profiled

cat > "$workdir/data.csv" <<'EOF'
id,zip,city
1,10115,Berlin
2,10115,Berlin
3,14467,Potsdam
4,69117,Heidelberg
EOF
jq -Rs '{csv: ., dataset: "chaos"}' < "$workdir/data.csv" > "$workdir/req.json"

# start_daemon FAULT_SPEC [extra flags...] — boots profiled with the spec
# armed and sets $base to its address.
start_daemon() {
	spec=$1
	shift
	: > "$workdir/out.log"
	: > "$workdir/err.log"
	HOLISTIC_FAULTS="$spec" "$workdir/profiled" -addr 127.0.0.1:0 -workers 1 "$@" \
		> "$workdir/out.log" 2> "$workdir/err.log" &
	server_pid=$!
	addr=""
	for _ in $(seq 1 100); do
		addr=$(sed -n 's/^profiled: listening on //p' "$workdir/out.log" | head -n1)
		[ -n "$addr" ] && break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "chaos_profiled: server never reported its address" >&2
		cat "$workdir/err.log" >&2
		exit 1
	fi
	base="http://$addr"
}

stop_daemon() {
	kill -TERM "$server_pid"
	for _ in $(seq 1 100); do
		kill -0 "$server_pid" 2>/dev/null || break
		sleep 0.1
	done
	if kill -0 "$server_pid" 2>/dev/null; then
		echo "chaos_profiled: server did not exit after SIGTERM" >&2
		exit 1
	fi
	grep -q 'drained cleanly' "$workdir/err.log"
	server_pid=""
}

# submit_and_wait — submits req.json and echoes "<id> <terminal-state>".
submit_and_wait() {
	id=$(curl -fsS -X POST -H 'Content-Type: application/json' \
		--data-binary @"$workdir/req.json" "$base/v1/jobs" | jq -r '.id')
	state=""
	for _ in $(seq 1 100); do
		state=$(curl -fsS "$base/v1/jobs/$id" | jq -r '.state')
		case "$state" in done|partial|failed|canceled) break ;; esac
		sleep 0.1
	done
	echo "$id $state"
}

echo "== phase 1: panic containment, watchdog, recovery =="
# Three jobs' worth of injected panics (each panic kills one run); the
# default watchdog threshold is three consecutive panics. The circuit
# breaker threshold is raised above the panic count: this phase tests the
# watchdog and cache hygiene, and three failures of one (dataset,
# algorithm) pair would otherwise open the default breaker and 422 the
# recovery submission (that path has its own harness in
# overload_profiled.sh).
start_daemon "pli.intersect:panic:3" -breaker-threshold 4

for i in 1 2 3; do
	set -- $(submit_and_wait)
	if [ "$2" != "failed" ]; then
		echo "chaos_profiled: panicking job $i ended as '$2', want failed" >&2
		exit 1
	fi
	curl -fsS "$base/v1/jobs/$1" | jq -e '.error | test("panic")' > /dev/null
done
echo "three jobs failed on contained panics"

curl -fsS "$base/healthz" | jq -e '.status == "degraded"' > /dev/null
curl -fsS "$base/metrics" | grep -q '^profiled_degraded 1$'
echo "watchdog reports degraded after repeated panics"

# The fault budget is spent; the same dataset must now profile cleanly —
# proving failed runs never poisoned the result cache — and the watchdog
# must clear.
set -- $(submit_and_wait)
if [ "$2" != "done" ]; then
	echo "chaos_profiled: post-fault job ended as '$2', want done" >&2
	exit 1
fi
curl -fsS "$base/v1/jobs/$1" | jq -e '.result.fds | length > 0' > /dev/null
curl -fsS "$base/healthz" | jq -e '.status == "ok"' > /dev/null
curl -fsS "$base/metrics" | grep -q '^profiled_panics_total 3$'
echo "clean job succeeded; health recovered"

stop_daemon

echo "== phase 2: admit-journal failure sheds with 503 =="
# A durable daemon journals every admission before the job can run. The
# first admit write fails (as on a full disk): that submission must be shed
# with a structured 503, and the next one admitted and run to completion.
start_daemon "wal.append:error:1" -state-dir "$workdir/state"

code=$(curl -sS -o "$workdir/resp.json" -w '%{http_code}' \
	-D "$workdir/headers.txt" -X POST -H 'Content-Type: application/json' \
	--data-binary @"$workdir/req.json" "$base/v1/jobs")
if [ "$code" != "503" ]; then
	echo "chaos_profiled: failed admit journal returned $code, want 503" >&2
	exit 1
fi
retry=$(tr -d '\r' < "$workdir/headers.txt" | sed -n 's/^[Rr]etry-[Aa]fter: *//p')
if [ -z "$retry" ] || [ "$retry" -lt 1 ] || [ "$retry" -gt 60 ]; then
	echo "chaos_profiled: 503 Retry-After '$retry', want within [1, 60]" >&2
	exit 1
fi
jq -e '.error | test("state journal unavailable")' "$workdir/resp.json" > /dev/null
curl -fsS "$base/metrics" | grep -q '^profiled_wal_errors_total 1$'
echo "admit-journal failure shed with 503 + Retry-After $retry"

set -- $(submit_and_wait)
if [ "$2" != "done" ]; then
	echo "chaos_profiled: post-fault job ended as '$2', want done" >&2
	curl -fsS "$base/v1/jobs/$1" >&2 || true
	exit 1
fi
echo "next submission admitted and done"

stop_daemon

echo "chaos_profiled: all checks passed"
