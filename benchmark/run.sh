#!/usr/bin/env bash
# Build the benchmark from source, then run it; every argument passes
# through to benchmark.exe (see README.md). Run from anywhere: it works
# in the repository root. Build output goes to stderr, so the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# The shared dune cache lives outside the repository; keep the build
# inside it.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/benchmark.exe 1>&2
exec ./_build/default/benchmark/benchmark.exe "$@"
