#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments (see perf/README.md). Run from anywhere inside the
# checkout; build output and scratch checkpoints go under _build/ and
# nothing is written elsewhere.
set -euo pipefail
cd "$(dirname "$0")/.."
# The shared dune cache lives outside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perf/main.exe 1>&2
export TMPDIR="$PWD/_build/perf-tmp"
mkdir -p "$TMPDIR"
exec ./_build/default/perf/main.exe "$@"
