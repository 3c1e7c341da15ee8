#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the root
# of the repository; every argument is passed through:
#
#   bash perfbench/run.sh --workload warm-read --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --steady 10
#
# The binary, the Go build cache and the run's working files all stay under
# .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
