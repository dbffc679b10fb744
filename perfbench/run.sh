#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs one workload:
#
#   bash perfbench/run.sh --workload train-grid --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write stays inside the checkout: the Go build cache, the binary and the
# Go tool's own state under .bench_build, span dumps and checkpoints under
# .bench_out.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" HOME="$build/home" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
