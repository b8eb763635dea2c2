#!/usr/bin/env bash
# Builds the benchmark from the checkout that holds this script and runs
# it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload cell-point --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# result reports, span files) goes under .bench_build at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the toolchain's files inside the checkout, and keep it offline.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# Provenance: the revision is known only when the checkout is a git work
# tree of its own.
rev=none
if [ -e "$root/.git" ]; then
  rev="$(GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
fi
cmd="bash perfbench/run.sh$(printf ' %q' "$@")"

cd "$root"
exec "$out/perfbench" -out "$out" -rev "$rev" -command "$cmd" "$@"
