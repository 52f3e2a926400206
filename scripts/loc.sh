#!/usr/bin/env bash
# loc.sh [dir=.]
#
# Non-test Go lines per package of the tree at dir, one "<lines> <package>"
# line each, sorted by package, then "<lines> TOTAL". Counted: every .go
# and .s (Go assembly) file except _test.go files, testdata/, the bench/
# module and the worktrees scripts/bench-pairs.sh keeps under
# .bench_build/. CI runs it on
# the head and the base commit of a pull request and compares the TOTAL
# lines; run it locally to report the same numbers.
set -euo pipefail

cd "${1:-.}"
find . \( -name '*.go' -o -name '*.s' \) -not -path './bench/*' -not -path './.bench_build/*' -not -name '*_test.go' \
	-not -path '*/testdata/*' -print0 | xargs -0 wc -l |
	awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1; t += $1 }
	     END { for (d in n) print n[d], d; print t, "TOTAL" }' | sort -k2
