#!/usr/bin/env bash
# Builds heraldbench from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload ingest-http --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, module cache, telemetry, the binary) lands under
# .bench_build in the checkout, so nothing is written outside it.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

go -C "$root/bench" build -o "$build/heraldbench" .
exec "$build/heraldbench" "$@"
