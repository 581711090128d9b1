#!/usr/bin/env bash
# Build the benchmark from source, then run it.  Arguments pass through
# to `perfbench run`:
#   bash perfbench/run.sh --workload paper_ref --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe run "$@"
