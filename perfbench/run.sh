#!/usr/bin/env bash
# Builds the benchmark driver and amdrel_serve from this checkout's
# sources (once; later runs only re-check the build), then runs one
# benchmark invocation from the checkout root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build tree is $CARGO_TARGET_DIR/perfbench (default
# .bench_build/perfbench). Build output goes to stderr; stdout carries
# only the benchmark's report and result lines.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$build"
(
  flock 9
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
  fi
  cmake --build "$build" -j "$(nproc)" --target perfbench amdrel_serve >&2
) 9>"$build/.lock"
exec "$build/perfbench" --serve-bin "$build/amdrel_serve" "$@"
