#!/usr/bin/env bash
# Runs the benchmark N times, each time with another seed, and prints the
# median, the quartiles and the spread (IQR / median) of every end-to-end
# metric per workload: the tool the bounds in spec.go were set with.
#   bash bench/repeat.sh N [tag] [flags for the benchmark, e.g. -workload nfv_race]
set -euo pipefail
n="${1:?usage: repeat.sh N [tag] [benchmark flags]}"
tag="${2:-runs}"
shift; shift || true
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
dir="$here/out/$tag"
mkdir -p "$dir"
for seed in $(seq 1 "$n"); do
  bash "$here/run.sh" -trace 0 -seed "$seed" -json "$dir/seed-$seed.json" "$@" | grep '^==' || true
done
bash "$here/run.sh" -summarize "$dir"
