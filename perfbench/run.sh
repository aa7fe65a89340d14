#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs one workload.  Run from the repository root:
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
# The build goes to .bench_build/ (release profile, no shared dune cache).
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/main.ml ]; then
  echo "perfbench: run from the root of a CRUSADE checkout (dune-project, lib/ and perfbench/ are required)" >&2
  exit 2
fi
dune build --root . --profile release --build-dir .bench_build --cache=disabled \
  ./perfbench/main.exe >&2
exec ./.bench_build/default/perfbench/main.exe "$@"
