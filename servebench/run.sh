#!/usr/bin/env bash
# Builds crackserve, crackrouter and the benchmark driver from this
# checkout, then runs one workload. Run it from the repository root:
#
#   bash servebench/run.sh --workload explore --seed 1 --seconds 18 --trace 0
#
# Everything it builds or writes stays under .bench_build/servebench.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/crackserve || ! -d servebench ]]; then
	echo "servebench: run from the repository root (no go.mod, cmd/crackserve or servebench here)" >&2
	exit 2
fi
out="$PWD/.bench_build/servebench"
mkdir -p "$out/bin" "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
go build -o "$out/bin/crackserve" ./cmd/crackserve
go build -o "$out/bin/crackrouter" ./cmd/crackrouter
(cd servebench && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" -bin "$out/bin" -work "$out/run" "$@"
