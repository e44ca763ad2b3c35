#!/usr/bin/env bash
# loc.sh — print non-test Go lines of code per package: the physical lines
# (as wc -l counts them) of every .go file that is not a _test.go file,
# grouped by directory. After the packages it prints the serving layer's
# total (internal/serve + internal/serve/jobs, the number ROADMAP.md tracks)
# and the repository total. Report only: it never fails on a count.
#
# Usage: scripts/loc.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

find . -path './.*' -prune -o -name testdata -prune -o \
	-name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 wc -l | grep -v ' total$' |
	awk '{ dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir); if (dir == "") dir = ".";
	       loc[dir] += $1; all += $1
	       if (dir == "internal/serve" || dir == "internal/serve/jobs") serve += $1 }
	     END { for (d in loc) printf "%7d  %s\n", loc[d], d | "sort -k2"; close("sort -k2")
	           printf "%7d  serve+jobs (internal/serve, internal/serve/jobs)\n", serve
	           printf "%7d  total\n", all }'
