"""Smoke test of the benchmark at its smallest size; finishes in seconds.

Run from the root of the repository:

    python3 benchmark/smoke_test.py        (or: python3 -m pytest benchmark/smoke_test.py)

Each workload runs with ``--tiny`` (verify at max_n=2, one (2,1)/3 rung,
one ``perturb`` subcommand), traced and untraced.  The untraced run is
made twice with the same seed, so the second compares its exact counts
with the first.  Every run must pass its correctness gates and report
exactly the metrics, with the units, that BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("verify_suite", "class_ladder", "cli_session")


def _declared():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    return {
        key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    }


def _run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tiny_runs_are_correct_and_complete():
    declared = _declared()
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] is True, (workload, trace, result["failed"])
            assert result["failed"] == 0 and result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == declared[key], (workload, trace)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name)


def test_unknown_workload_fails_without_result():
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "nope",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    test_tiny_runs_are_correct_and_complete()
    test_unknown_workload_fails_without_result()
    print("benchmark smoke test passed")
