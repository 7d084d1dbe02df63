#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the repo root: bash bench/run.sh -workload nfv_race -seed 1
# The build cache and the binary stay inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GOCACHE="${GOCACHE:-$root/.bench_build/gocache}"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$here/out"
go -C "$here" build -o "$here/out/psibench" .
cd "$root"
exec "$here/out/psibench" "$@"
