#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing its
# arguments through. Everything it writes stays inside the checkout: the
# binary and the Go build cache under .bench_build/, WAL files and traces
# under benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/../.bench_build"
mkdir -p "$build" "$here/out"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/txbench" .)
exec "$build/txbench" -out "$here/out" "$@"
