#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.: bash perfbench/run.sh --workload trials-kn --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache, temporary files, run scratch files and
# traces all stay under the build directory ($CARGO_TARGET_DIR, default
# .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export CARGO_TARGET_DIR="$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
