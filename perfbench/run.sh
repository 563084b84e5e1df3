#!/usr/bin/env bash
# Builds perfbench and campaignd from the checkout this script sits in,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Everything it writes — the Go
# build cache, the binaries, cached oracle digests and per-run scratch —
# stays under .bench_build/perfbench in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/campaignd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a full checkout (go.mod, cmd/campaignd and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/bin/campaignd" ./cmd/campaignd
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -campaignd "$out/bin/campaignd" -dir "$out" "$@"
