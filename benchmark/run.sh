#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a gocast checkout. Build outputs, the Go build
# cache and traced-run files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "run.sh: run from the root of a gocast checkout (go.mod, internal/, benchmark/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

# Build under a private name, then rename: a concurrent run never executes
# a half-written binary.
(cd "$root/benchmark" && go build -trimpath -o "$out/gocast-bench.$$" .)
mv -f "$out/gocast-bench.$$" "$out/gocast-bench"
exec "$out/gocast-bench" "$@"
