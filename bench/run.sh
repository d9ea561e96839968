#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything the
# build writes (binary, Go build cache, temp files) stays under .bench_build
# in the checkout. Arguments are passed through to the benchmark:
#
#   bash bench/run.sh --workload commit-lite --seed 7 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/socrates-bench" ./bench
exec "$build/socrates-bench" "$@"
