#!/usr/bin/env bash
# The harness entry point named in BENCHMARK.json. Run from the root of a
# checkout: builds the ledger from source with every build product (the
# binary, Go's build cache, its temporary files) under .bench_build/ inside
# the checkout, then runs it with the harness's arguments. A person can as
# well type `go run ./bench/ledger`.
set -euo pipefail
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp
go build -o "$build/ledger" ./bench/ledger
exec "$build/ledger" "$@"
