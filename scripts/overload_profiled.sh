#!/bin/sh
# overload_profiled.sh — overload-resilience harness for the profiled daemon:
# flood it far past saturation and assert it degrades instead of dying.
#
#   phase 1 — flood: ~5x the daemon's capacity in concurrent waves of unique
#     submissions. Every request must get a prompt, definitive answer
#     (bounded p99 admission latency), every rejection a computed Retry-After
#     in [1, 60], every accepted job a distinct ID that reaches a terminal
#     state — zero lost, zero duplicated — and /healthz must be ok right
#     after the flood drains. Ten concurrent submissions of one idempotency
#     key must collapse onto a single job, journaled exactly once.
#
#   phase 2 — circuit breaker: with -breaker-threshold 1, one deadline
#     blowout on a hostile dataset opens its (dataset, algorithm) breaker;
#     the resubmission fast-fails with 422 carrying the prior error, and
#     after -breaker-cooldown a trial probe with a sane deadline closes it
#     again (healthz back to ok within one cooldown). Both deadlines derive
#     from a measured offline run of the dataset, so the phase holds on
#     fast and slow machines alike.
#
#   phase 3 — memory watermark: the daemon restarted with
#     HOLISTIC_FAULTS="mem.watermark:error" behaves as if the heap sat above
#     the hard watermark: large submissions get 503 + Retry-After, small ones
#     run degraded, the level gauge reads 2 and /healthz reports degraded.
#
# Requires curl and jq. Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

for tool in curl jq; do
	if ! command -v "$tool" >/dev/null 2>&1; then
		echo "overload_profiled: $tool not found, skipping" >&2
		exit 0
	fi
done

workdir=$(mktemp -d)
server_pid=""
trap 'kill -9 "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

echo "== build =="
go build -o "$workdir/profiled" ./cmd/profiled
go build -o "$workdir/profile" ./cmd/profile

statedir="$workdir/state"

start_daemon() {
	: > "$workdir/out.log"
	: > "$workdir/err.log"
	"$workdir/profiled" -addr 127.0.0.1:0 -workers 2 -queue 8 \
		-state-dir "$statedir" \
		-breaker-threshold 1 -breaker-cooldown 2s \
		> "$workdir/out.log" 2> "$workdir/err.log" &
	server_pid=$!
	addr=""
	for _ in $(seq 1 100); do
		addr=$(sed -n 's/^profiled: listening on //p' "$workdir/out.log" | head -n1)
		[ -n "$addr" ] && break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "overload_profiled: server never reported its address" >&2
		cat "$workdir/err.log" >&2
		exit 1
	fi
	base="http://$addr"
}

kill_daemon() {
	kill -9 "$server_pid" 2>/dev/null || true
	wait "$server_pid" 2>/dev/null || true
	server_pid=""
}

# retry_after_ok HDRFILE — asserts a Retry-After header exists and sits in
# the documented [1, 60] clamp.
retry_after_ok() {
	ra=$(tr -d '\r' < "$1" | sed -n 's/^[Rr]etry-[Aa]fter: //p' | head -n1)
	if [ -z "$ra" ]; then
		echo "overload_profiled: rejection without Retry-After ($1)" >&2
		exit 1
	fi
	if [ "$ra" -lt 1 ] || [ "$ra" -gt 60 ]; then
		echo "overload_profiled: Retry-After $ra outside [1, 60]" >&2
		exit 1
	fi
}

# wait_job ID — polls the job until terminal, echoes the state.
wait_job() {
	for _ in $(seq 1 300); do
		jstate=$(curl -fsS "$base/v1/jobs/$1" | jq -r '.state')
		case "$jstate" in done|partial|failed|canceled|lost) echo "$jstate"; return ;; esac
		sleep 0.1
	done
	echo "overload_profiled: job $1 never settled" >&2
	exit 1
}

# gen_csv SEED ROWS FILE — a unique dataset per submission (unique bytes: no
# result-cache short-circuits, every acceptance is real work). Eight random
# columns keep the lattice walk busy for long enough that a concurrent wave
# actually piles up behind the two workers.
gen_csv() {
	awk -v seed="$1" -v n="$2" 'BEGIN {
		srand(seed)
		print "a,b,c,d,e,f,g,h"
		for (r = 0; r < n; r++)
			printf "%d,%d,%d,%d,%d,%d,%d,s%d\n", r, int(rand()*800), int(rand()*300), int(rand()*90), int(rand()*30), int(rand()*12), int(rand()*5), seed
	}' > "$3"
}

start_daemon
rdir="$workdir/flood"
mkdir -p "$rdir"

total=160
wave=20
echo "== phase 1: flood ($total submissions, waves of $wave, capacity 2+8) =="
i=0
while [ "$i" -lt "$total" ]; do
	w=0
	wave_pids=""
	while [ "$w" -lt "$wave" ] && [ "$i" -lt "$total" ]; do
		i=$((i + 1))
		w=$((w + 1))
		(
			gen_csv "$i" 1500 "$rdir/csv.$i"
			jq -Rs --arg k "flood-$i" '{csv: ., idempotency_key: $k}' < "$rdir/csv.$i" > "$rdir/req.$i"
			curl -sS -o "$rdir/body.$i" -D "$rdir/hdr.$i" -w '%{http_code} %{time_total}\n' \
				-X POST -H 'Content-Type: application/json' \
				--data-binary @"$rdir/req.$i" "$base/v1/jobs" > "$rdir/meta.$i"
		) &
		wave_pids="$wave_pids $!"
	done
	# A bare `wait` would also block on the daemon; wait on this wave only.
	for pid in $wave_pids; do
		wait "$pid"
	done
done

accepted=0
rejected=0
: > "$rdir/ids"
: > "$rdir/latencies"
i=0
while [ "$i" -lt "$total" ]; do
	i=$((i + 1))
	read -r code latency < "$rdir/meta.$i"
	printf '%s\n' "$latency" >> "$rdir/latencies"
	case "$code" in
	202)
		accepted=$((accepted + 1))
		jq -r '.id' < "$rdir/body.$i" >> "$rdir/ids"
		;;
	429|503)
		rejected=$((rejected + 1))
		retry_after_ok "$rdir/hdr.$i"
		;;
	*)
		echo "overload_profiled: submission $i got unexpected status $code" >&2
		cat "$rdir/body.$i" >&2
		exit 1
		;;
	esac
done

if [ $((accepted + rejected)) -ne "$total" ]; then
	echo "overload_profiled: accepted $accepted + rejected $rejected != $total" >&2
	exit 1
fi
if [ "$rejected" -eq 0 ]; then
	echo "overload_profiled: no rejections despite 5x saturation" >&2
	exit 1
fi
if [ "$accepted" -eq 0 ]; then
	echo "overload_profiled: flood starved every submission" >&2
	exit 1
fi

# Bounded admission latency: p99 under 2s even while saturated.
p99=$(sort -g "$rdir/latencies" | awk -v n="$total" 'NR == int(n * 99 / 100) { print; exit }')
if [ "$(awk "BEGIN { print ($p99 > 2.0) ? 1 : 0 }")" -eq 1 ]; then
	echo "overload_profiled: p99 admission latency ${p99}s, want <= 2s" >&2
	exit 1
fi

# Zero duplicated: every accepted ID is distinct. Zero lost: each reaches a
# terminal state.
distinct=$(sort -u "$rdir/ids" | wc -l)
if [ "$distinct" -ne "$accepted" ]; then
	echo "overload_profiled: $accepted accepted jobs but only $distinct distinct IDs" >&2
	exit 1
fi
while read -r jid; do
	wait_job "$jid" > /dev/null
done < "$rdir/ids"
submitted=$(curl -fsS "$base/metrics" | awk '/^profiled_jobs_submitted_total / { print $2 }')
if [ "$submitted" -ne "$accepted" ]; then
	echo "overload_profiled: jobs_submitted_total $submitted != accepted $accepted" >&2
	exit 1
fi
status=$(curl -fsS "$base/healthz" | jq -r '.status')
if [ "$status" != "ok" ]; then
	echo "overload_profiled: healthz '$status' after the flood drained, want ok" >&2
	exit 1
fi
echo "phase 1 passed: $accepted accepted, $rejected rejected (Retry-After honest), p99 ${p99}s, zero lost/duplicated"

echo "== phase 1b: concurrent idempotent retries =="
gen_csv 9001 120 "$rdir/dup.csv"
jq -Rs '{csv: ., idempotency_key: "dup-key-1"}' < "$rdir/dup.csv" > "$rdir/dup.json"
i=0
dup_pids=""
while [ "$i" -lt 10 ]; do
	i=$((i + 1))
	curl -sS -X POST -H 'Content-Type: application/json' \
		--data-binary @"$rdir/dup.json" "$base/v1/jobs" | jq -r '.id' > "$rdir/dup.$i" &
	dup_pids="$dup_pids $!"
done
for pid in $dup_pids; do
	wait "$pid"
done
dup_ids=$(cat "$rdir"/dup.1 "$rdir"/dup.2 "$rdir"/dup.3 "$rdir"/dup.4 "$rdir"/dup.5 \
	"$rdir"/dup.6 "$rdir"/dup.7 "$rdir"/dup.8 "$rdir"/dup.9 "$rdir"/dup.10 | sort -u)
if [ "$(printf '%s\n' "$dup_ids" | wc -l)" -ne 1 ] || [ -z "$dup_ids" ]; then
	echo "overload_profiled: 10 concurrent same-key submissions yielded IDs: $dup_ids" >&2
	exit 1
fi
wait_job "$dup_ids" > /dev/null
# Journaled exactly once: the key appears in one admission record, so dedup
# holds across a crash too.
wal_hits=$(grep -a -c '"idempotency_key":"dup-key-1"' "$statedir/profiled.wal")
if [ "$wal_hits" -ne 1 ]; then
	echo "overload_profiled: idempotency key journaled $wal_hits times, want exactly 1" >&2
	exit 1
fi
echo "phase 1b passed: one job ($dup_ids), journaled once"

echo "== phase 2: circuit breaker on a deadline-blowing dataset =="
# A genuinely hostile dataset: 15 columns of cardinality 6 over 16000 rows
# and no cheap keys, so the minimal keys sit deep in the lattice and the
# walk runs for seconds (about 4 s on 2 CPUs). The admission estimator —
# trained on the flood's ordinary datasets, which profile in milliseconds —
# predicts it fits the deadline and admits it; the run then blows the
# deadline. Exactly the case breakers exist for.
awk 'BEGIN {
	srand(42)
	h = "c0"; for (c = 1; c < 15; c++) h = h ",c" c; print h
	for (r = 0; r < 16000; r++) {
		row = int(rand()*6); for (c = 1; c < 15; c++) row = row "," int(rand()*6)
		print row
	}
}' > "$rdir/hostile.csv"
# Time one offline run on this machine: the blowout deadline is a quarter of
# it, the trial deadline four times it (at least 30 s).
t0=$(jq -n now)
"$workdir/profile" -workers 2 "$rdir/hostile.csv" > /dev/null
t1=$(jq -n now)
blowout=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 4 }')
sane=$(awk -v a="$t0" -v b="$t1" 'BEGIN { t = 4 * (b - a); printf "%.0f", (t > 30 ? t : 30) }')
echo "hostile dataset profiles offline in $(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.2f", b - a }')s: blowout deadline ${blowout}s, trial deadline ${sane}s"
jq -Rs --argjson t "$blowout" '{csv: ., timeout_seconds: $t}' < "$rdir/hostile.csv" > "$rdir/hostile.json"
hid=$(curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$rdir/hostile.json" "$base/v1/jobs" | jq -r '.id')
hstate=$(wait_job "$hid")
case "$hstate" in
partial|failed) ;;
*)
	echo "overload_profiled: ${blowout}s-deadline job on the hostile dataset ended '$hstate'" >&2
	exit 1
	;;
esac

# Threshold 1: that single blowout opened the breaker. The retry — even with
# a generous deadline — fast-fails with 422 and the prior error.
jq -Rs --argjson t "$sane" '{csv: ., timeout_seconds: $t}' < "$rdir/hostile.csv" > "$rdir/hostile2.json"
code=$(curl -sS -o "$rdir/bk.body" -D "$rdir/bk.hdr" -w '%{http_code}' \
	-X POST -H 'Content-Type: application/json' \
	--data-binary @"$rdir/hostile2.json" "$base/v1/jobs")
if [ "$code" -ne 422 ]; then
	echo "overload_profiled: open-breaker resubmission got $code, want 422" >&2
	cat "$rdir/bk.body" >&2
	exit 1
fi
retry_after_ok "$rdir/bk.hdr"
jq -e '.error | test("circuit breaker")' < "$rdir/bk.body" > /dev/null
status=$(curl -fsS "$base/healthz" | jq -r '.status')
if [ "$status" != "degraded" ]; then
	echo "overload_profiled: healthz '$status' with an open breaker, want degraded" >&2
	exit 1
fi

# One cooldown later the trial probe runs with a sane deadline, succeeds,
# and closes the breaker.
sleep 2.2
tid=$(curl -fsS -X POST -H 'Content-Type: application/json' \
	--data-binary @"$rdir/hostile2.json" "$base/v1/jobs" | jq -r '.id')
tstate=$(wait_job "$tid")
if [ "$tstate" != "done" ]; then
	echo "overload_profiled: breaker trial job ended '$tstate', want done" >&2
	exit 1
fi
status=$(curl -fsS "$base/healthz" | jq -r '.status')
if [ "$status" != "ok" ]; then
	echo "overload_profiled: healthz '$status' after the breaker closed, want ok" >&2
	exit 1
fi
curl -fsS "$base/metrics" > "$rdir/metrics.breaker"
grep -q '^profiled_breaker_trips_total 1$' "$rdir/metrics.breaker"
echo "phase 2 passed: tripped on one blowout, 422 fast-fail, closed by the trial probe"

echo "== phase 3: hard memory watermark (fault-injected) =="
kill_daemon
HOLISTIC_FAULTS="mem.watermark:error" start_daemon

# Large submission (the hostile CSV is ~470 KiB, past the 256 KiB large-job
# threshold): refused with 503 + Retry-After.
jq -Rs '{csv: .}' < "$rdir/hostile.csv" > "$rdir/big.json"
code=$(curl -sS -o "$rdir/mem.body" -D "$rdir/mem.hdr" -w '%{http_code}' \
	-X POST -H 'Content-Type: application/json' \
	--data-binary @"$rdir/big.json" "$base/v1/jobs")
if [ "$code" -ne 503 ]; then
	echo "overload_profiled: large submission under memory pressure got $code, want 503" >&2
	cat "$rdir/mem.body" >&2
	exit 1
fi
retry_after_ok "$rdir/mem.hdr"
jq -e '.error | test("memory pressure")' < "$rdir/mem.body" > /dev/null

# Small submissions still run — degraded.
small=$(curl -fsS -X POST -H 'Content-Type: application/json' \
	-d '{"csv": "a,b\n1,2\n3,4\n"}' "$base/v1/jobs")
sid=$(printf '%s' "$small" | jq -r '.id')
if [ "$(printf '%s' "$small" | jq -r '.degraded')" != "true" ]; then
	echo "overload_profiled: small job under pressure not flagged degraded" >&2
	exit 1
fi
sstate=$(wait_job "$sid")
if [ "$sstate" != "done" ]; then
	echo "overload_profiled: degraded small job ended '$sstate', want done" >&2
	exit 1
fi
curl -fsS "$base/metrics" > "$rdir/metrics.mem"
grep -q '^profiled_mem_watermark_level 2$' "$rdir/metrics.mem"
status=$(curl -fsS "$base/healthz" | jq -r '.status')
if [ "$status" != "degraded" ]; then
	echo "overload_profiled: healthz '$status' above the hard watermark, want degraded" >&2
	exit 1
fi
echo "phase 3 passed: large refused with honest Retry-After, small served degraded, pressure visible"

kill_daemon
echo "overload_profiled: all checks passed"
