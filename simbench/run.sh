#!/usr/bin/env bash
# Builds the simulator benchmark from the sources in the current
# checkout and runs it with the given arguments, e.g.
#
#   bash simbench/run.sh --workload worm-two-walk --seed 0 --seconds 10 --trace 0
#
# Run it from the repository root. Build products and the Go build cache
# stay under .bench_build/ in that root; compiler output goes to stderr,
# so standard output carries only the benchmark's report.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/simbench" && go build -o "$out/simbench" .) >&2
exec "$out/simbench" "$@"
