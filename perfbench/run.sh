#!/usr/bin/env bash
# Builds the benchmark, cmd/serve and cmd/router from this checkout and
# runs one benchmark workload. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload offline-zoo --seed 1 --seconds 50 --trace 0
#
# Everything it builds or writes stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)

# Refuse to start without the program's sources, before any go command runs.
for f in go.mod cmd/serve cmd/router; do
	if [ ! -e "$root/$f" ]; then
		echo "perfbench: $f not found; run from the root of a micronets checkout" >&2
		exit 1
	fi
done

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

# With telemetry on, the go command forks a detached child that outlives it.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/bin/serve" ./cmd/serve
go build -o "$out/bin/router" ./cmd/router
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
