#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds into .bench_build at the root of the checkout and runs from there.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a full checkout (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet \
  ./perfbench/perfbench.exe ./bin/dhw_node.exe 1>&2
exec .bench_build/default/perfbench/perfbench.exe \
  --node-exe .bench_build/default/bin/dhw_node.exe "$@"
