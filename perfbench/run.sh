#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the repository root:
#   bash perfbench/run.sh --workload point-mixed --seed 1 --seconds 40 --trace 0
# Everything it builds or writes goes under .bench_build/ in the root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
