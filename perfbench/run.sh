#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash perfbench/run.sh --workload fig6-sim --seed 1 --seconds 30 --trace 0
# Run it from the repository root. Everything the build writes (Go build
# cache, temporary files, the binary) goes under .bench_build/ (or
# $CARGO_TARGET_DIR).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/config"

# XDG_CONFIG_HOME keeps the go command's local telemetry counters in
# the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off CGO_ENABLED=0

go build -C "$root/perfbench" -o "$build/perfbench.bin" .
exec "$build/perfbench.bin" -out "$build/perfbench" "$@"
