#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes
# to .bench_build/ under the root, so nothing outside the checkout is touched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/compisa-bench" .)
exec "$out/compisa-bench" "$@"
