#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it:
#
#   bash p5perf/run.sh --workload query-mix --seed 1 --seconds 20 --trace 0
#
# The binary, Go's build cache and temporary files all stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/p5perf" .)
exec "$out/p5perf" "$@"
