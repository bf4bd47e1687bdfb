#!/usr/bin/env bash
# Builds the harness from this checkout's sources and runs it. Every file
# the build and the run write stays inside the checkout, under
# .bench_build/ and benchmark/out/: Go's build cache, its scratch
# directory (which defaults to /tmp), and whatever the toolchain keeps
# under $HOME (telemetry counters, go/env, the module cache).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOWORK=off
# -buildvcs=false: the checkout need not be a git repository, and a
# repository above it is none of the build's business.
go build -C benchmark -buildvcs=false -o "$build/benchmark" .
exec "$build/benchmark" "$@"
