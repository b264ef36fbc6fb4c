#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout, then runs it with the arguments given
# (--workload W --seed N --seconds S --trace 0|1). Everything the Go
# toolchain writes (build cache, temporary files, the binary) stays under
# .bench_build/ in the checkout. Run it from the repository root;
# `go run ./benchmark` does the same with the user's own build cache.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
