#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source
# and runs it with the arguments given. Everything the build writes —
# the binary, Go's build cache and its temporary files — stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/m2mbench" ./benchmark)
exec "$build/m2mbench" "$@"
