#!/usr/bin/env bash
# Builds the benchmark from source into bench/out/ and runs it with the
# arguments given. The Go build cache, temp files and the go command's own
# counter files (it keeps them under the user's config directory) are kept
# inside bench/out/ too, so a run reads and writes nothing outside its
# checkout, and nothing is fetched from the network.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" XDG_CONFIG_HOME="$PWD/out/config"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -o out/bench .
exec out/bench "$@"
