#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given flags. Run it from the repository root:
#   bash perfbench/run.sh --workload sim-hot-mixed --seed 1 --seconds 10 --trace 0
# The Go build cache and the binary stay under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
