#!/usr/bin/env bash
# Lint self-check: runs `amdrel_cli lint` over the seeded-defect fixtures
# and asserts each reports its expected rule ID with a nonzero exit, and
# that the clean fixtures pass with exit 0. Then checks that `verify`
# keeps its verdict and error exit codes apart: a refuted pair exits 1,
# a design that cannot be read exits 3, and so does a `bench_gen` count
# out of range. Usage:
#   scripts/lint-selfcheck.sh [path/to/amdrel_cli]
set -uo pipefail
cd "$(dirname "$0")/.."

CLI="${1:-build/examples/amdrel_cli}"
FIXTURES=tests/fixtures
fail=0

expect_defect() {  # <fixture> <rule-id>
  local out rc
  out=$("$CLI" lint "$FIXTURES/$1" 2>&1)
  rc=$?
  if [[ $rc -eq 0 ]]; then
    echo "FAIL: $1 exited 0, expected nonzero"; fail=1
  elif ! grep -q "$2" <<< "$out"; then
    echo "FAIL: $1 did not report $2:"; echo "$out"; fail=1
  else
    echo "ok: $1 -> $2 (exit $rc)"
  fi
}

expect_clean() {  # <fixture> [top]
  local out rc
  out=$("$CLI" lint "$FIXTURES/$1" ${2:+"$2"} 2>&1)
  rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "FAIL: $1 exited $rc, expected 0:"; echo "$out"; fail=1
  else
    echo "ok: $1 clean (exit 0)"
  fi
}

expect_exit() {  # <code> <description> <cli args...>
  local want=$1 what=$2 out rc
  shift 2
  out=$("$CLI" "$@" 2>&1)
  rc=$?
  if [[ $rc -ne $want ]]; then
    echo "FAIL: $what exited $rc, expected $want:"; echo "$out"; fail=1
  else
    echo "ok: $what (exit $rc)"
  fi
}

expect_defect defect_comb_loop.blif NL001
expect_defect defect_double_driven.blif NL002
expect_defect defect_floating_input.blif NL003
expect_clean clean_small.blif
expect_clean traffic_light.vhd traffic
expect_exit 1 "verify eq_guard vs eq_guard_flipped" \
  verify "$FIXTURES/eq_guard.blif" "$FIXTURES/eq_guard_flipped.blif"
expect_exit 3 "verify with a missing design" \
  verify "$FIXTURES/no_such_design.blif" "$FIXTURES/eq_guard.blif"
expect_exit 3 "bench_gen with a negative edit count" \
  bench_gen x 20 0 1 --edit -3

exit $fail
