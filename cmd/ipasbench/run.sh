#!/usr/bin/env bash
# Builds cmd/ipasbench from source and runs it with the given flags.
# Run from the repository root, for example:
#
#   bash cmd/ipasbench/run.sh --workload remote-fft --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, binary, journals, span
# files) stays under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS="-mod=readonly -buildvcs=false"

go -C cmd/ipasbench build -o "$out/ipasbench" .
exec "$out/ipasbench" "$@"
