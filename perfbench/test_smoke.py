"""Smoke test of the benchmark on a tiny version of each workload.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload(workload: str, trace: int) -> None:
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}

    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert np.isfinite(entry["value"]), name
        if name.endswith("self_s"):
            assert entry["value"] >= 0, name

    # failed_frac == 0
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], done.stdout

    if trace:
        spans = np.load(BENCH / "out" / f"spans-{workload}.npz")
        parent, start, end = spans["parent"], spans["start_ns"], spans["end_ns"]
        assert parent.size > 0 and np.all(end >= start)
        child = parent >= 0
        assert np.all(start[child] >= start[parent[child]])
        assert np.all(end[child] <= end[parent[child]])
        covered = np.zeros(parent.size, dtype=np.int64)
        np.add.at(covered, parent[child], (end - start)[child])
        assert np.all(end - start - covered >= 0)


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(tmp_path, "verify-sweep", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
