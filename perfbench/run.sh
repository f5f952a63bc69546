#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Every
# argument passes through to the binary, e.g.
#
#   bash perfbench/run.sh --workload archive --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build cache, binary and scratch files all
# live under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath" "$build/work"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" "$@"
