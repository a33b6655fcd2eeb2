#!/usr/bin/env bash
# Builds udcbench from source into benchmarks/out/ and runs it with the given
# arguments from the caller's directory.  Everything the build and the run
# write stays under benchmarks/out/ (build cache included), so a checkout is
# left as it was found once that directory is removed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$here/udcbench" && go build -o "$out/udcbench" .)
exec "$out/udcbench" "$@"
