#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build and the run write (Go build cache, temporary files, the binary,
# WAL directories, span files) under .bench_build/ in the checkout.
# This is the command BENCHMARK.json names; `go run ./bench` is the same
# program with the build cache in its usual place.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
