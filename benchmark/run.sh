#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build (Go build
# cache included, so nothing outside the checkout is written) and runs it
# with the caller's arguments. BENCHMARK.json names this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
# Everything the toolchain writes (build cache, module cache, temporary
# work directories, telemetry counters) stays under $build, and nothing is
# fetched.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/sbx-benchmark" .)
exec "$build/sbx-benchmark" "$@"
