#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh -seed 1 [-json out.json]
#   bash bench/run.sh --workload statecache --seed 3 --seconds 30 --trace 0
#
# The build cache, module cache, Go config and the binary all live under
# .bench_build/ in the current directory, so nothing is written elsewhere.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
