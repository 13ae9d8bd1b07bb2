"""tools/outputs.py: diff on small synthetic run trees, and its in-process runs against one process per run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"


@pytest.fixture(scope="module")
def outputs():
    spec = importlib.util.spec_from_file_location("outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(root: Path, name: str, residuals: dict[str, float]) -> None:
    """One run directory as ``outputs.py run`` writes it: run.json, a verify report, a CSV and a metadata file."""
    out = root / name / "out"
    out.mkdir(parents=True)
    (root / name / "run.json").write_text(json.dumps({"exit": 0, "stdout": "ok\n", "stderr": ""}), encoding="utf-8")
    checks = [{"name": check, "pass": r <= 1e-10, "residual": r, "tol": 1e-10} for check, r in residuals.items()]
    (out / "report.json").write_text(json.dumps({"kind": "verify", "suites": [{"suite": "bundle.momentum[B]", "checks": checks}]}), encoding="utf-8")
    (out / "table.csv").write_text("x,y\n1,2\n", encoding="utf-8")
    (out / "table.meta.json").write_text("{}\n", encoding="utf-8")


def make_tree(root: Path, edited: float = 2e-16) -> Path:
    write_run(root, "a@default", {"J_equivariance": 1e-16, "quotient_idempotent": 0.0})
    write_run(root, "b@9001", {"J_equivariance": 3e-16, "quotient_idempotent": edited})
    return root


def test_identical_trees_print_no_difference(outputs, tmp_path, capsys):
    old, new = make_tree(tmp_path / "old"), make_tree(tmp_path / "new")
    assert outputs.main(["diff", str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a@default: identical",
        "b@9001: identical",
        "2 of 2 runs byte-identical",
        "verdict changes: 0",
        "moved residuals and tolerances: 0",
        "least headroom per run (largest residual/tol, flags left out): OLD | NEW",
        "  a@default: 1e-06 bundle.momentum[B]:J_equivariance | 1e-06 bundle.momentum[B]:J_equivariance",
        "  b@9001: 3e-06 bundle.momentum[B]:J_equivariance | 3e-06 bundle.momentum[B]:J_equivariance",
    ]


def test_one_edited_residual_prints_exactly_that_check(outputs, tmp_path):
    old, new = make_tree(tmp_path / "old"), make_tree(tmp_path / "new", edited=5e-16)
    lines, same = outputs.diff(old, new)
    assert not same
    assert lines == [
        "a@default: identical",
        "b@9001: differs in report.json",
        "1 of 2 runs byte-identical",
        "verdict changes: 0",
        "moved residuals and tolerances: 1",
        "  b@9001 bundle.momentum[B]:quotient_idempotent residual: 2e-16 -> 5e-16 (relative move 0.6)",
        "least headroom per run (largest residual/tol, flags left out): OLD | NEW",
        "  a@default: 1e-06 bundle.momentum[B]:J_equivariance | 1e-06 bundle.momentum[B]:J_equivariance",
        "  b@9001: 3e-06 bundle.momentum[B]:J_equivariance | 5e-06 bundle.momentum[B]:quotient_idempotent",
    ]


def test_a_changed_verdict_is_listed_before_the_moves(outputs, tmp_path):
    old, new = make_tree(tmp_path / "old"), make_tree(tmp_path / "new", edited=3e-10)
    lines, _ = outputs.diff(old, new)
    assert lines[3:5] == ["verdict changes: 1", "  b@9001 bundle.momentum[B]:quotient_idempotent: pass -> FAIL"]


def test_least_headroom_leaves_out_flags_and_reads_drift(outputs, tmp_path):
    old, new = make_tree(tmp_path / "old"), make_tree(tmp_path / "new")
    # a failed flag (residual 1 against 0.5) is no headroom; a suite_error (inf against 0) is the least there is
    report = new / "a@default" / "out" / "report.json"
    doc = json.loads(report.read_text(encoding="utf-8"))
    doc["suites"][0]["checks"].append({"name": "rank_split", "pass": False, "residual": 1.0, "tol": 0.5})
    report.write_text(json.dumps(doc), encoding="utf-8")
    assert outputs.least_headroom(doc) == (1e-6, "bundle.momentum[B]:J_equivariance")
    doc["suites"].append({"suite": "poisson.jacobi", "checks": [{"name": "suite_error", "pass": False, "residual": "inf", "tol": 0.0}]})
    assert outputs.least_headroom(doc) == (float("inf"), "poisson.jacobi:suite_error")
    # a simulate report's drift monitors count; a run on one side only prints "-" on the other
    write_run(new, "c@1", {})
    (new / "c@1" / "out" / "report.json").write_text(json.dumps({"kind": "simulate", "drift": {"energy": 2e-7}, "drift_tol": 1e-6}), encoding="utf-8")
    lines, _ = outputs.diff(old, new)
    assert lines[-3:] == [
        "  a@default: 1e-06 bundle.momentum[B]:J_equivariance | 1e-06 bundle.momentum[B]:J_equivariance",
        "  b@9001: 3e-06 bundle.momentum[B]:J_equivariance | 3e-06 bundle.momentum[B]:J_equivariance",
        "  c@1: - | 0.2 drift:energy",
    ]


def test_in_process_runs_match_subprocess_runs(outputs, tmp_path):
    # one child interpreter calls cli.main for each run: an argparse error (its SystemExit) and a built-in simulation
    # must give the record and files of a `python -m gaugemech.cli` process each
    tree = TOOL.parents[1]
    runs = {"bad-seed": ["simulate", "heavy-top-free", "--seed", "x"], "heavy-top-free": ["simulate", "heavy-top-free", "--seed", "9003"]}
    with outputs.cli_process(tree) as cli:
        records = {name: cli([*args, "--out", str(tmp_path / "in" / name)]) for name, args in runs.items()}
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, args in runs.items():
        proc = subprocess.run([sys.executable, "-m", "gaugemech.cli", *args, "--out", str(tmp_path / "sub" / name)],
                              env=env, capture_output=True, text=True, check=False)
        assert records[name] == {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    assert records["bad-seed"]["exit"] == 2 and records["heavy-top-free"]["exit"] == 0
    files = {side: {p.relative_to(tmp_path / side).as_posix(): p.read_bytes() for p in (tmp_path / side).rglob("*") if p.is_file()} for side in ("in", "sub")}
    assert sorted(files["in"]) == ["heavy-top-free/report.json", "heavy-top-free/trajectory.csv", "heavy-top-free/trajectory.meta.json"]
    assert files["in"] == files["sub"]
