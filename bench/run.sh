#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the driver's entry point
# (see BENCHMARK.json). Everything the build leaves behind goes under
# .bench_build at the root of the checkout. Arguments go to the benchmark
# unchanged: --workload NAME --seed N --seconds S --trace 0|1.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
# bench/go.mod replaces module repro with "..": without the repository
# around it the build fails and nothing runs.
go build -C "$bench" -o "$build/sickle-e2e-bench" .
cd "$root"
exec "$build/sickle-e2e-bench" "$@"
