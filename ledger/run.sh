#!/usr/bin/env bash
# Builds the ledger benchmark from this checkout's sources and runs it. All
# build and run output stays under .bench_build/ in the checkout.
#
#   bash ledger/run.sh --workload export_commit --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C ledger -o "$build/ledger" .
exec "$build/ledger" "$@"
