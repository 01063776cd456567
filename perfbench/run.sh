#!/usr/bin/env bash
# Builds the command-line tools and the benchmark from this checkout, then
# runs the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload figures-all --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bin/" ./cmd/figures ./cmd/vccsweep ./cmd/sweepd ./cmd/tracegen ./cmd/irawsim
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --root "$root" --bin "$build/bin" "$@"
