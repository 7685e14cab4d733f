#!/usr/bin/env bash
# Builds rbayd and the benchmark from this checkout, then runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig9-sim --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, daemon data dirs and span files all
# stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local

go build -o "$out/bin/rbayd" ./cmd/rbayd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -rbayd "$out/bin/rbayd" -work "$out/work" "$@"
