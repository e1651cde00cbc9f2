#!/usr/bin/env python3
"""Self-test of the benchmark, run from the checkout root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at its smallest size (--small, a
two-second window) and asserts that
  1. the untraced run prints every end_to_end metric and the traced run
     every per_layer metric, each with the unit BENCHMARK.json gives it,
     and both runs are correct with no failed op;
  2. a deliberately corrupted bitstream (--corrupt-op 0) is counted as a
     failed op and makes the run incorrect;
  3. the traced run's kernel replay reproduces the timed run's channel
     width and bitstream hash (no replay mismatch, at least one op
     replayed).
Exits 0 when every assertion holds.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, *extra):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", "7",
           "--seconds", "2", "--small", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, defs, what):
    got = result["metrics"]
    want = {d["name"]: d["unit"] for d in defs}
    assert set(got) == set(want), (what, sorted(set(got) ^ set(want)))
    for name, unit in want.items():
        assert got[name]["unit"] == unit, (what, name, got[name])
        assert isinstance(got[name]["value"], (int, float)), (what, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        plain = run(name, "--trace", "0")
        check_metrics(plain, bench["end_to_end"], name + " untraced")
        assert plain["correct"] and plain["failed"] == 0, (name, plain)
        assert plain["attempted"] >= 1, (name, plain)

        corrupted = run(name, "--trace", "0", "--corrupt-op", "0")
        assert corrupted["failed"] >= 1 and not corrupted["correct"], (
            name, "corrupted bitstream not counted as failed", corrupted)

        traced = run(name, "--trace", "1")
        check_metrics(traced, bench["per_layer"], name + " traced")
        m = traced["metrics"]
        assert traced["correct"] and traced["failed"] == 0, (name, traced)
        assert m["trace.replayed_ops"]["value"] >= 1, (name, m)
        assert m["trace.replay_mismatches"]["value"] == 0, (name, m)
        print(f"ok {name}: {plain['attempted']} ops, corrupted op caught, "
              f"replay matched on {m['trace.replayed_ops']['value']:g} ops",
              flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
