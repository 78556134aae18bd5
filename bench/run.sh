#!/usr/bin/env bash
# What BENCHMARK.json's command runs: build the benchmark from source
# inside the checkout and measure one workload as a child. The driver
# appends --workload, --seed, --seconds and --trace. Everything the Go
# toolchain writes (build cache, module cache, temporary files, its
# telemetry counters under the user's config directory) is pointed
# into .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C "$root/bench" -o "$build/graft-bench" .
cd "$root"
exec "$build/graft-bench" -child "$@"
