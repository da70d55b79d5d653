#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload csv-mine --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and temporary files, the run's scratch
# files and traced runs' span files all stay under .bench_build/ in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" TMPDIR="$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
