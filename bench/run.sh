#!/usr/bin/env bash
# Runs the benchmark from the root of any checkout of the repository.
# The Go build cache is kept inside the checkout, so a run reads and
# writes nothing outside it and needs no $HOME.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
exec go -C "$root/bench" run . "$@"
