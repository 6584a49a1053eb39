#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
#
# Build caches and run files stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
