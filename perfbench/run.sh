#!/usr/bin/env bash
# Builds the benchmark (and the agentrec packages it drives) from source into
# .bench_build/ at the repository root, then runs it with the given flags:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
#
# Everything the build writes — binary, Go build cache, scratch state — stays
# under .bench_build/. The build is incremental: an unchanged tree relinks
# nothing, so only the first run in a fresh checkout pays for compilation.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -statedir "$out/tmp" "$@"
