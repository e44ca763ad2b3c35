#!/usr/bin/env bash
# run.sh builds the perfbench binary from this checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-grid --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the benchmark
# write (Go build cache, binary, journals, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config"
export XDG_CACHE_HOME="${build}/cache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .) >&2
exec "${build}/perfbench" --out "${build}" "$@"
