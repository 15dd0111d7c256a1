#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache, temporary files, span and profile output)
# goes under .bench_build/ in the repository root; nothing is fetched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" -out "$build/out" "$@"
