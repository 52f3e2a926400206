#!/usr/bin/env bash
# smoke.sh serve|shard|elastic [outdir] — what the in-process e2e suites
# cannot show: the real binaries boot with their flags, answer over real TCP,
# survive kill -9 through WAL replay, and join and drain between processes.
# Behaviour is accepted by `go test ./...` and numbers by bench/; this needs
# only go, curl and jq. Logs and /debug snapshots land in outdir (a temp dir
# when not given); everything started here is killed on exit, and a failed
# gate prints the tail of every server log.
set -euo pipefail

mode=${1:?usage: smoke.sh serve|shard|elastic [outdir]}
case $mode in serve | shard | elastic) ;; *)
	echo "smoke.sh: unknown mode $mode (serve|shard|elastic)" >&2
	exit 2
	;;
esac
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
out=${2:-$tmp/out}
mkdir -p "$out"
pids=()

cleanup() {
	code=$?
	[ ${#pids[@]} -eq 0 ] || kill "${pids[@]}" 2>/dev/null || true
	wait 2>/dev/null || true
	if [ "$code" -ne 0 ]; then
		for log in "$out"/*.log; do
			[ -e "$log" ] || continue
			echo "---- $log" >&2
			tail -n 40 "$log" >&2
		done
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

# gate <what> <command...>: run one acceptance check (its stdout dropped, its
# stderr kept), name it either way.
gate() {
	local what=$1
	shift
	if "$@" >/dev/null; then echo "ok    $what"; else
		echo "FAIL  $what" >&2
		exit 1
	fi
}

# boot <name> <base-url> <binary> <flags...>: start a server, log to
# outdir/<name>.log, wait until /healthz says ok (a router says so only once a
# probe has seen a live replica). Leaves its pid in $booted.
boot() {
	local name=$1 base=$2
	shift 2
	if curl -fsS "$base/healthz" >/dev/null 2>&1; then
		echo "FAIL  something else already answers at $base" >&2
		exit 1
	fi
	"$tmp/bin/$1" "${@:2}" >"$out/$name.log" 2>&1 &
	booted=$!
	pids+=("$booted")
	for _ in $(seq 1 120); do
		if curl -fsS "$base/healthz" 2>/dev/null | jq -e '.status == "ok"' >/dev/null; then return 0; fi
		if ! kill -0 "$booted" 2>/dev/null; then
			echo "FAIL  $name exited before it was healthy" >&2
			exit 1
		fi
		sleep 1
	done
	echo "FAIL  $name not healthy after 120 s" >&2
	exit 1
}

# infers <base>: one POST /v2/infer on the demo model, its body built from the
# inputShape GET /v2/models reports, answers one output of non-zero length.
infers() {
	local body
	body=$(curl -fsS "$1/v2/models" | jq -c 'first(.[] | select(.name == "demo")) | {model: .name, items:
		[{shape: .inputShape, data: [range(.inputShape | reduce .[] as $d (1; . * $d)) | (. % 7) / 7]}]}')
	curl -fsS "$1/v2/infer" -d "$body" | jq -e '(.outputs | length) == 1 and (.outputs[0].data | length) > 0'
}

# keyed_job <base> <key>: a keyed subsample job posted twice answers 202 then
# 200 with one ID, reaches succeeded, and its result holds points. The ID is
# left in $job_id.
keyed_job() {
	local req first second
	req=$(jq -nc --arg key "$2" '{type: "subsample", idempotencyKey: $key, subsample:
		{dataset: "GESTS-2048", cube: 8, numHypercubes: 2, numSamples: 32, seed: 1}}')
	first=$(curl -sS -o "$tmp/first.json" -w '%{http_code}' "$1/v2/jobs" -d "$req")
	second=$(curl -sS -o "$tmp/second.json" -w '%{http_code}' "$1/v2/jobs" -d "$req")
	job_id=$(jq -r .id "$tmp/first.json")
	if [ "$first $second" != "202 200" ] || [ "$job_id" != "$(jq -r .id "$tmp/second.json")" ]; then
		echo "keyed job posted twice: HTTP $first then $second" >&2
		cat "$tmp/first.json" "$tmp/second.json" >&2
		return 1
	fi
	succeeds "$1" "$job_id"
}

# succeeds <base> <job-id>: the job reaches succeeded and its result holds
# points.
succeeds() {
	local state=
	for _ in $(seq 1 300); do
		state=$(curl -fsS "$1/v2/jobs/$2" | jq -r .state)
		case $state in succeeded | failed | canceled) break ;; esac
		sleep 0.1
	done
	[ "$state" = succeeded ] && answers "$1/v2/jobs/$2/result" '.subsample.points > 0'
}

# answers <url> <jq-filter>: the JSON the URL answers satisfies the filter.
answers() { curl -fsS "$1" | jq -e "$2"; }

# counted <base> <series-prefix>: the series' values sum to more than zero.
counted() { curl -fsS "$1/metrics" | awk -v p="$2" 'index($1, p) == 1 { s += $2 } END { exit !(s > 0) }'; }

# exposition <file>: internal/obs's TestExpositionFile runs (is not
# skipped) on the saved body and passes; its output lands in <file>.out.
exposition() {
	SICKLE_EXPOSITION_FILE=$1 "$tmp/bin/obs.test" -test.run '^TestExpositionFile$' -test.v >"$1.out" 2>&1 &&
		grep -q -- '--- PASS: TestExpositionFile' "$1.out"
}

# lints <base>: the live /metrics passes the exposition check, and the same
# check fails on a 200 that carries no le= series (/healthz).
lints() {
	curl -fsS "$1/metrics" >"$tmp/metrics.txt" && curl -fsS "$1/healthz" >"$tmp/healthz.txt" &&
		exposition "$tmp/metrics.txt" &&
		! exposition "$tmp/healthz.txt" && grep -q 'no le-bucketed' "$tmp/healthz.txt.out"
}

# usage_exit <stderr-file> <command...>: the command exits 2 and what it
# wrote to stderr is a message, not a goroutine dump.
usage_exit() {
	local err=$1 code=0
	shift
	"$@" 2>"$err" || code=$?
	[ "$code" -eq 2 ] && ! grep -q goroutine "$err"
}

# (grep reads to EOF: an early -q exit fails curl's write under pipefail.)
exports() { curl -fsS "$1/metrics" | grep "^$2" >/dev/null; }
traces_tier() { answers "$1/debug/traces" ".tier == \"$2\" and (.traces | length) > 0"; }
# json_log <file>: the file is one or more JSON objects, each with string
# level and msg fields, and nothing else.
json_log() { jq -e -s 'length > 0 and all(.[]; type == "object" and (.level | type) == "string" and (.msg | type) == "string")' "$1"; }
has_event() { jq -e --arg t "$2" 'any(.events[]; .type == $t)' "$1"; }

cd "$root"
mkdir -p "$tmp/bin"
go build -o "$tmp/bin/" ./cmd/sickle-serve ./cmd/sickle-shard ./cmd/sickle-top ./cmd/sickle-stream
go test -c -o "$tmp/bin/obs.test" ./internal/obs

case $mode in
serve)
	base=http://127.0.0.1:18080 side=http://127.0.0.1:16060
	serve=(sickle-serve -addr 127.0.0.1:18080 -debug-addr 127.0.0.1:16060 -demo -data-dir "$out/sickle-data")
	gate "sickle-stream -grid 24 is a usage error (exit 2, no goroutine dump)" usage_exit "$out/stream-grid.err" "$tmp/bin/sickle-stream" -source cfd3d -grid 24
	boot serve "$base" "${serve[@]}"
	gate "the -debug-addr sidecar serves pprof" curl -fsS "$side/debug/pprof/cmdline"
	gate "  ... /metrics" exports "$side" sickle_build_info
	gate "  ... and the recorder's /debug/history" answers "$side/debug/history?since=5m" '.tier == "serve"'
	gate "/api/version offers v2" answers "$base/api/version" 'any(.versions[]; . == "v2")'
	gate "POST /v2/infer on demo returns one output" infers "$base"
	gate "keyed job: 202 then 200 with one ID, succeeded, points > 0" keyed_job "$base" smoke-a
	gate "the same request under a fresh key" keyed_job "$base" smoke-b
	smoke_b=$job_id
	gate "  ... was served from the content-addressed cache" counted "$base" sickle_dedup_hits_total
	gate "  ... and the WAL took appends" counted "$base" sickle_wal_appends_total
	gate "TestExpositionFile passes /metrics and fails a 200 without le= series" lints "$base"
	gate "/debug/traces lists tier serve" traces_tier "$base" serve
	# Crash recovery: no ceremony, same data dir, and the WAL replay must
	# surface the jobs above as recovery events in the journal.
	kill -9 "$booted"
	wait "$booted" 2>/dev/null || true
	boot serve-restart "$base" "${serve[@]}"
	curl -fsS "$base/debug/events?type=recovery" >"$out/recovery-events.json"
	gate "after kill -9 and a restart the journal holds recovery events" has_event "$out/recovery-events.json" recovery
	gate "sickle_wal_recovered_jobs_total is exported" exports "$base" sickle_wal_recovered_jobs_total
	# A succeeded job's result rides in its terminal WAL record: restored,
	# not re-run, and no results/ directory beside the log.
	gate "  ... the smoke-b job's result survived the restart" answers "$base/v2/jobs/$smoke_b/result" '.subsample.points > 0'
	gate "  ... restored from its terminal record" counted "$base" 'sickle_wal_recovered_jobs_total{action="restored"}'
	gate "  ... and the data dir has no results/ directory" test ! -e "$out/sickle-data/results"
	# Crash drill on a fresh data dir: SICKLE_CRASH_POINT freezes the WAL
	# before the terminal record, so the job succeeds in memory only; after
	# kill -9 and a restart without the variable, replay re-runs it.
	kill -9 "$booted"
	wait "$booted" 2>/dev/null || true
	# The drill replica also logs under -log-json: every line it writes must
	# be a JSON object with a string level and msg.
	drill=(sickle-serve -addr 127.0.0.1:18080 -demo -data-dir "$out/crash-data" -log-json)
	SICKLE_CRASH_POINT=before:terminal boot serve-crash "$base" "${drill[@]}"
	gate "crash drill: the replica logs that its WAL crash point is armed" grep -q 'wal crash point armed' "$out/serve-crash.log"
	gate "  ... and under -log-json its log is JSON objects with level and msg only" json_log "$out/serve-crash.log"
	gate "  ... a keyed job succeeds with the WAL frozen before:terminal" keyed_job "$base" smoke-crash
	drill_job=$job_id
	kill -9 "$booted"
	wait "$booted" 2>/dev/null || true
	boot serve-recover "$base" "${drill[@]}"
	gate "  ... after kill -9 and a restart without it, the job is re-enqueued" counted "$base" 'sickle_wal_recovered_jobs_total{action="reenqueued"}'
	gate "  ... and succeeds again with points" succeeds "$base" "$drill_job"
	;;
shard)
	base=http://127.0.0.1:18090
	boot shard "$base" sickle-shard -addr 127.0.0.1:18090 -demo
	gate "POST /v2/infer through the router" infers "$base"
	gate "keyed job through the router: 202 then 200 with one ID, succeeded" keyed_job "$base" smoke-a
	gate "  ... whose ID names the replica that admitted it ($job_id)" test "${job_id#*@r}" != "$job_id"
	gate "the ring routed requests to a replica" counted "$base" sickle_shard_routed_requests_total
	gate "TestExpositionFile passes /metrics and fails a 200 without le= series" lints "$base"
	gate "/debug/traces lists tier shard" traces_tier "$base" shard
	# Flight recorder: the console's one-shot snapshot comes back healthy with
	# scatter-gathered per-replica history, and the /debug surfaces answer.
	"$tmp/bin/sickle-top" -target "$base" -once >"$out/top-once.json"
	gate "sickle-top -once: status ok" jq -e '.health.status == "ok"' "$out/top-once.json"
	gate "sickle-top -once: gathered sickle_shard_requests_total" grep -q sickle_shard_requests_total "$out/top-once.json"
	curl -fsS "$base/debug/history?since=5m" >"$out/debug-history.json"
	curl -fsS "$base/debug/events?limit=256" >"$out/debug-events.json"
	curl -fsS "$base/debug/slo" >"$out/debug-slo.json"
	;;
elastic)
	# A 3-replica demo fleet at replication 2: every keyed submission lives on
	# two owners, so draining one loses nothing. (The drain under live load is
	# TestShardDrainUnderLoad; here it happens between real processes.)
	base=http://127.0.0.1:18095 bare=http://127.0.0.1:18096
	boot elastic-shard "$base" sickle-shard -addr 127.0.0.1:18095 -demo -replication 2
	# Scale up: a bare backend (no models) joins through the admin API, and
	# admission warm-prefetches the demo model onto it before it takes traffic.
	boot elastic-serve "$bare" sickle-serve -addr 127.0.0.1:18096
	curl -fsS "$base/admin/replicas" -d "{\"url\":\"$bare\"}" >"$out/elastic-join.json"
	gate "join prefetched the demo model" jq -e 'any(.prefetchedModels[]; . == "demo")' "$out/elastic-join.json"
	gate "the newcomer serves it" infers "$bare"
	gate "membership lists r3" answers "$base/admin/replicas" 'any(.replicas[]; .id == "r3")'
	gate "keyed job at K=2" keyed_job "$base" smoke-a
	# Scale down: an original replica drains out.
	curl -fsS -X DELETE "$base/admin/replicas/r1" >"$out/elastic-drain.json"
	curl -fsS "$base/admin/replicas" >"$out/elastic-members.json"
	gate "r1 left the membership" jq -e 'all(.replicas[]; .id != "r1")' "$out/elastic-members.json"
	gate "the job admitted before the drain still reads succeeded" answers "$base/v2/jobs/$job_id" '.state == "succeeded"'
	gate "infer still answers" infers "$base"
	curl -fsS "$base/debug/events?limit=512" >"$out/elastic-events.json"
	for typ in replica_join replica_drain replica_leave rebalance; do
		gate "journal holds $typ" has_event "$out/elastic-events.json" "$typ"
	done
	gate "sickle_shard_rebalances_total moved" counted "$base" sickle_shard_rebalances_total
	;;
esac
echo "smoke $mode: all gates passed"
