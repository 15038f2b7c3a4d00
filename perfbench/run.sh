#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run from
# the repository root, for example:
#
#   bash perfbench/run.sh --workload sim-pop --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and span dumps stay under
# .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: run from the repository root; the program is built from its source" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
