#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with
# the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload batch-closed --seed 1 --seconds 16 --trace 0
#
# Everything the build leaves behind — the binary and Go's build cache —
# stays under .bench_build/ in the checkout, and so does everything the
# benchmark writes while it runs (verdict stores, span dumps).
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS=-modcacherw GOTOOLCHAIN=local

go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
