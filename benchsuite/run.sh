#!/usr/bin/env bash
# Build the suite from source and run it; arguments go to main.exe.
# Run from the repository root:
#   bash benchsuite/run.sh --workload fi_box_small --seed 1 --seconds 25 --trace 0
# Everything it writes stays under the working directory: dune's
# _build, the native binary cache and compiler temporaries in
# .bench_cache.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchsuite: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi
mkdir -p .bench_cache/tmp
export TMPDIR="$PWD/.bench_cache/tmp"
export DUNE_CACHE=disabled
dune build --root . ./benchsuite/main.exe >&2
exec ./_build/default/benchsuite/main.exe "$@"
