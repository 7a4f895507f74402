#!/bin/sh
# Build perfbench from source into .bench_build, then run it with the
# given arguments, from the root of a checkout:
#
#   bash bench/perf/run.sh --workload desktop --seed 3 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line on stdout stays the
# result object. The shared dune cache is off: the build writes only
# below the working directory.
set -eu
dune build --root . --build-dir .bench_build --display quiet --cache disabled \
  ./bench/perf/perf.exe >&2
exec ./.bench_build/default/bench/perf/perf.exe "$@"
