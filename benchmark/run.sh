#!/usr/bin/env bash
# Entry point of the repository benchmark (the "command" of BENCHMARK.json):
# builds benchmark/cmd/adskip-benchmark from source into .bench_build/ and
# replaces this shell with it, so a run is one process. Everything the
# build writes — Go's build cache and temporary files included — stays
# inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
bin="$build/adskip-benchmark"
# Build to a private name and rename: two concurrent runs never exec a
# half-written binary.
(cd "$here" && go build -o "$bin.$$" ./cmd/adskip-benchmark)
mv -f "$bin.$$" "$bin"
cd "$root"
exec "$bin" -out "$here/out" -scratch "$build" "$@"
