#!/usr/bin/env bash
# The command BENCHMARK.json names.  It builds the benchmark from source with
# the build cache, the binary and the write-ahead logs all under .bench_build/
# of the checkout, so nothing is read or written outside it, then replaces
# itself with the binary; every argument goes through.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" -tmp "$build/tmp" "$@"
