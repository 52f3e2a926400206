#!/usr/bin/env bash
# bench-pairs.sh <parent-rev> <change-rev> <workload> [pairs=5] [seconds=24]
#
# The ledger's comparison protocol, written once (bench/README.md: "ten
# alternating pairs of parent and change"). Both revisions are checked out as
# git worktrees under .bench_build/pairs/; each pair runs one seed on both
# sides, each side with its own bench/run.sh (its own copy of the benchmark,
# its own build); the side that goes first alternates. Per end-to-end metric
# it prints the parent median, the change median, the parent's interquartile
# range and on how many pairs the change read better (ties count for
# neither). Nothing under bench/ is edited. Each run's last line is kept in
# .bench_build/pairs/<workload>.{parent,change}.jsonl; the worktrees are
# removed on exit. Needs git, go and jq. A revision is anything `git worktree
# add` takes; `git stash create` names one for uncommitted work.
set -euo pipefail

[ $# -ge 3 ] || {
	echo "usage: bench-pairs.sh <parent-rev> <change-rev> <workload> [pairs=5] [seconds=24]" >&2
	exit 2
}
parent=$1 change=$2 workload=$3 pairs=${4:-5} seconds=${5:-24}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
dir=$root/.bench_build/pairs

cleanup() {
	for side in parent change; do
		git -C "$root" worktree remove --force "$dir/$side" 2>/dev/null || true
	done
	git -C "$root" worktree prune
}
trap cleanup EXIT
mkdir -p "$dir"
cleanup # a run that was killed may have left its worktrees behind
for side in parent change; do
	git -C "$root" worktree add --quiet --detach "$dir/$side" "${!side}"
	: >"$dir/$workload.$side.jsonl"
done

for i in $(seq 1 "$pairs"); do
	order="parent change"
	[ $((i % 2)) -eq 1 ] || order="change parent"
	for side in $order; do
		echo "pair $i/$pairs, seed $i: $side" >&2
		(cd "$dir/$side" && bash bench/run.sh --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0) |
			tail -n 1 >>"$dir/$workload.$side.jsonl"
	done
done

jq -rn --slurpfile p "$dir/$workload.parent.jsonl" --slurpfile c "$dir/$workload.change.jsonl" \
	--slurpfile b "$root/BENCHMARK.json" --arg w "$workload" '
	def q(f): sort as $s | ((($s | length) - 1) * f) as $h | ($h | floor) as $lo
		| $s[$lo] + ($h - $lo) * ($s[$h | ceil] - $s[$lo]);
	def r: . * 1000 | round / 1000;
	["\($w), \($p | length) pairs", "parent", "change", "parent IQR", "better"],
	($b[0].end_to_end[] | . as $m
		| [$p[].metrics[$m.name].value] as $pv | [$c[].metrics[$m.name].value] as $cv
		| [range($pv | length) | select(if $m.better == "lower" then $cv[.] < $pv[.] else $cv[.] > $pv[.] end)]
		| [$m.name, ($pv | q(0.5) | r), ($cv | q(0.5) | r), (($pv | q(0.75)) - ($pv | q(0.25)) | r),
			"\(length)/\($pv | length)"]),
	["failed ops", ([$p[].failed] | add), ([$c[].failed] | add), "", ""]
	| @tsv' | awk -F'\t' '{ printf "%-28s %12s %12s %12s %8s\n", $1, $2, $3, $4, $5 }'
