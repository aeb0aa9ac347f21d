#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it. Run from the
# repository root:
#
#   bash hostbench/run.sh --workload registry --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ and every report under .bench_out/, both in the current
# directory. Without the parent module next to hostbench/ the build fails
# and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
# The go command keeps its telemetry and settings under the user config
# directory; point that inside the build directory too.
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off XDG_CONFIG_HOME="$build/config"

(cd "$root/hostbench" && go build -trimpath -o "$build/hostbench" .)
exec "$build/hostbench" "$@"
