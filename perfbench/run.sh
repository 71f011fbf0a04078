#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build artefact (Go build cache included) stays under
# .bench_build. Arguments pass through, e.g.
#   bash perfbench/run.sh --workload paper-heavy --seed 1 --seconds 25 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
