#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from source inside
# the checkout, then run it with the arguments given. The binary, the Go build
# cache and whatever else the go command keeps per user all go under
# .bench_build/, so nothing outside the checkout is written.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/home"
env HOME="$build/home" GOCACHE="$build/go-cache" GOPATH="$build/gopath" \
    GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off \
    go build -C bench -o "$build/ditabench" .
exec "$build/ditabench" -out "$root/bench/out" "$@"
