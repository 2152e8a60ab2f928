#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash _benchmark/run.sh --workload smp-base --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# to .bench_build/ (or $CARGO_TARGET_DIR when set); spans, CPU profiles and
# full reports go to .bench_out/. Both are relative to the working directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/senss-benchmark" .) >&2
exec "$build/senss-benchmark" "$@"
