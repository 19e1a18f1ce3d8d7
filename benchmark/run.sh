#!/usr/bin/env bash
# Builds the striping benchmark from source and runs it; every argument
# is passed to it (see benchmark/stripe_bench.ml). Run from anywhere:
#   bash benchmark/run.sh --workload bundle-bimodal --seed 42 --seconds 15 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Everything the build writes stays under _build/ in this tree.
export DUNE_CACHE=disabled
dune build --root . --profile release ./benchmark/stripe_bench.exe 1>&2
exec ./_build/default/benchmark/stripe_bench.exe "$@"
