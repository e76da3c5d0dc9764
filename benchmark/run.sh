#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds and runs ./benchmark from the
# root of a checkout, keeping the Go build cache and temporary files inside
# the checkout (.bench_build/), so the run reads and writes nothing outside.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
exec go run ./benchmark "$@"
