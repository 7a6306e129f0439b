#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's sources, then runs it.
#
#   bash pipebench/run.sh --workload rand-sweep --seed 1 --seconds 55 --trace 0
#
# Run from the root of the checkout.  The build goes to .pipebench_build/
# (release profile, so a stray warning cannot stop it); spans of a traced
# run go to .pipebench_out/.  Every argument is passed to the program,
# pipebench/main.ml, which prints its result as the last line of stdout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f pipebench/dune ]; then
  echo "pipebench: run from the root of a memsched checkout (dune-project, lib/, pipebench/)" >&2
  exit 2
fi

dune build --root . --profile release --build-dir .pipebench_build ./pipebench/main.exe 1>&2

exec ./.pipebench_build/default/pipebench/main.exe "$@"
