#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload engine-large --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, binary, telemetry)
# stays under .bench_build/ in the checkout. The build fails, and the
# script exits non-zero, when the module the benchmark measures is not
# beside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2
cd "$root"
exec "$build/perfbench/perfbench" "$@"
