#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the Go
# toolchain writes (build cache, temp files, binaries) stays under
# bench/out/, so a run reads and writes only inside the checkout.
set -eu
cd "$(dirname "$0")"
out="$PWD/out"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/bench" .
cd ..
exec "$out/bin/bench" "$@"
