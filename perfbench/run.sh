#!/bin/sh
# Builds the server and the benchmark from source into .bench_build,
# then runs the benchmark with the arguments given, e.g.
#   sh perfbench/run.sh --workload hot --seed 1 --seconds 30 --trace 0
# Must be run from the repository root.  Build output goes to stderr so
# the benchmark's last stdout line stays its JSON result.
set -e
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build \
  ./bin/stgq_cli.exe ./perfbench/perfbench.exe 1>&2
exec .bench_build/default/perfbench/perfbench.exe \
  --server .bench_build/default/bin/stgq_cli.exe "$@"
