#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload kv-serving --seed 2014 --seconds 30 --trace 0
#
# The binary, the Go build cache and the iteration artifacts all stay under
# .bench_build/ in the checkout. Nothing is fetched: the benchmark module
# depends only on the bdbench module one directory up.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
