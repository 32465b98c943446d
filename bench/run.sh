#!/usr/bin/env bash
# Builds zperf from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload peek_remote --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write — Go's build cache, the binary,
# trace files — goes to .bench_build/ at the repository root, so a run
# touches nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -buildvcs=false -o "$build/zperf" .)
exec "$build/zperf" -tracedir "$build" "$@"
