#!/usr/bin/env bash
# Builds the fgstpperf benchmark program and runs it from the repository
# root. Every build output and temporary file stays under .bench_build/
# in the checkout, so a run never writes outside it.
#
#   bash bench/run.sh --workload paper-eval --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh compare setA setB
#   bash bench/run.sh golden [-check] [-hotblock=false]
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/bench" -o "$build/fgstpperf" ./fgstpperf
exec "$build/fgstpperf" -root "$root" "$@"
