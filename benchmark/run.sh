#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds bfbench from source with `go build -o`
# and replaces this shell with the binary (exec), so nothing but the
# benchmark process itself is ever running. No `go run`, no background jobs.
# Build cache, binary, results and traces all stay under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/bfbench" .)
exec "$out/bfbench" -out "$out" "$@"
