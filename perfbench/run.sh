#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-bulk --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the benchmark's temporary WAL
# directories stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off
go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
