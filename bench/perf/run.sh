#!/usr/bin/env bash
# Builds the perf benchmark from source and runs it; every argument goes
# to perf.exe (see README.md). Build output goes to standard error, so
# the last line of standard output is the benchmark's result.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled --display=quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
