#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the build and the run leave behind stays in .bench_build/ and
# bench/out/ there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/incdb-bench" .)
cd "$root"
exec "$build/incdb-bench" "$@"
