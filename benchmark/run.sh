#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root. Everything the build and the run write (Go build cache, binary,
# cluster directories, span files) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off TMPDIR="$build/tmp"
# The benchmark is its own module (benchmark/go.mod) that replaces module cfs
# with the checkout, so it builds against whatever commit it sits in.
go build -C benchmark -o "$build/cfs-benchmark" .
exec "$build/cfs-benchmark" -outdir "$build/out" "$@"
