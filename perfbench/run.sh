#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it in place of
# this shell. Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload plan-hot --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and the benchmark's temporary state all
# live under .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/perfbench-work" "$@"
