#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the
# given arguments. Everything the build writes (binary, Go build cache,
# Go config) stays under $CARGO_TARGET_DIR (default .bench_build) in the
# directory the script is started from, which must be the repository
# root.
#
#   bash perfbench/run.sh --workload wp-local --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --compare before.jsonl after.jsonl
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
