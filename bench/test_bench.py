"""Checks on the benchmark itself.

    python3 -m pytest bench

The determinism test runs each workload's small variant for a fixed number
of operations in two fresh interpreters with different hash seeds, and
requires every count that depends only on the inputs to come out equal.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OPS = 300

# Per-layer metrics that are timings, or depend on them; all others are counts.
TIMED = ("_ms", "trace.overhead")


def deterministic_counts(workload: str, seed: int) -> dict:
    import run

    run.import_relsync()
    _, report, tally, _ = run.untraced(workload, seed, None, small=True, max_ops=OPS)
    counts = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "divergences": report["divergences"][0],
    }
    if "delta_bytes_per_sync" in report:
        counts["delta_bytes_per_sync"] = report["delta_bytes_per_sync"][0]
    layers, _, _ = run.traced(workload, seed, None, small=True, max_ops=OPS)
    for name, (value, _) in layers.items():
        if not name.endswith(TIMED):
            counts[name] = value
    return counts


def counts_in_child(workload: str, seed: int, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(BENCH))
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), workload, str(seed)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["read-fanout", "write-churn", "fuzz-corpus"])
def test_same_seed_gives_same_counts(workload):
    first = counts_in_child(workload, 7, hash_seed=1)
    second = counts_in_child(workload, 7, hash_seed=2)
    assert first["attempted"] == OPS
    assert first["failed"] == 0
    assert first == second


def test_another_seed_gives_other_inputs():
    assert counts_in_child("write-churn", 7, 1) != counts_in_child("write-churn", 8, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__":
    print(json.dumps(deterministic_counts(sys.argv[1], int(sys.argv[2]))))
