#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags, from the root of a checkout:
#
#   bash bench/run.sh --workload host-replay --seed 7 --seconds 25 --trace 0
#
# The benchmark is a Go module of its own (bench/go.mod). Its build
# writes nothing outside the checkout: the binary, the Go build cache,
# temporary files and Go's config all live under bench/.build/, and the
# toolchain and module proxy stay offline.
set -euo pipefail

root=$(pwd)
build="$root/bench/.build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS=

(cd "$root/bench" && go build -o "$build/sfsbench" .) >&2
exec "$build/sfsbench" "$@"
