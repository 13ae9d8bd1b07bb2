"""Write the built-in scenario runs of a checkout, and compare two sets of them.

Usage:
    python tools/outputs.py run DIR [--seeds 1-20] [--tree PATH]
    python tools/outputs.py diff OLD NEW

``run`` runs every built-in scenario of the checkout at PATH (by default the
one holding this script) through its CLI: at the scenario's own seed and at
the held-out seeds 9001-9003, plus each seed of ``--seeds`` (a range ``A-B``
or a comma list).  One child interpreter, with the checkout's ``src`` on its
path, calls ``cli.main`` for each run in turn and catches the run's exit code
(a ``SystemExit`` included), stdout and stderr in process; runs made so are
byte-identical to one ``python -m gaugemech.cli`` process per run.  Run
``NAME@SEED`` keeps the CLI's output files in ``DIR/NAME@SEED/out`` and its
exit code, stdout and stderr in ``DIR/NAME@SEED/run.json``; the checkout's
path in stdout and stderr is written as ``<tree>``, so two checkouts compare.

``diff`` prints one line per run: whether its exit code, stdout, stderr,
``report.json``, CSVs and metadata (the other output files) are
byte-identical.  Then each check whose verdict changed, then each residual
or tolerance that moved, with its old and new value, largest relative move
first.  Last, the smallest headroom of each run on each side: the largest
residual/tol over its residual checks, with the check's name.  Flags (residual
0 or 1 against tolerance 0.5, which no scale changes) are left out.  It reads
only the two directories, so it compares any two trees.
Exit status 0 when every run is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

HELD_OUT_SEEDS = (9001, 9002, 9003)
PARTS = ("exit", "stdout", "stderr", "report.json", "csv", "metadata")


def parse_seeds(text: str) -> list[int]:
    """Seeds from ``A-B`` (inclusive) or ``a,b,c``."""
    if re.fullmatch(r"-?\d+-\d+", text):
        lo, hi = (int(s) for s in text.rsplit("-", 1))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


# the child: one JSON argument list per stdin line, answered by one JSON line with the run's exit code, stdout and
# stderr; an uncaught exception prints its traceback and exits 1, as the interpreter would, and the warnings
# already shown are forgotten between runs, as they are between processes
CHILD = """
import contextlib, io, json, sys, traceback, warnings
from gaugemech import cli

answer = sys.stdout
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        try:
            code = cli.main(json.loads(line))
        except SystemExit as exc:
            code = exc.code
            if not (code is None or isinstance(code, int)):
                print(code, file=sys.stderr)
                code = 1
        except Exception:
            traceback.print_exc()
            code = 1
    print(json.dumps({"exit": code or 0, "stdout": out.getvalue(), "stderr": err.getvalue()}), file=answer, flush=True)
"""


@contextmanager
def cli_process(tree: Path) -> Iterator[Callable[[list[str]], dict]]:
    """A call that runs the checkout's CLI on an argument list in one child interpreter and returns its record:
    exit code, stdout and stderr, the checkout's path in them written as ``<tree>``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with subprocess.Popen([sys.executable, "-c", CHILD], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as child:

        def call(args: list[str]) -> dict:
            child.stdin.write(json.dumps(args) + "\n")
            child.stdin.flush()
            line = child.stdout.readline()
            if not line:
                raise RuntimeError(f"the CLI process of {tree} ended with exit code {child.wait()} (its stderr is above)")
            record = json.loads(line)
            return record | {key: record[key].replace(str(tree), "<tree>") for key in ("stdout", "stderr")}

        yield call


def run(out: Path, tree: Path, seeds: list[int]) -> None:
    tree = tree.resolve()
    with cli_process(tree) as cli:
        for name, command in re.findall(r"^(\S+)\s+\((\w+)\)$", cli(["--list-builtins"])["stdout"], re.MULTILINE):
            for seed in [None, *HELD_OUT_SEEDS, *seeds]:
                run_dir = out / f"{name}@{'default' if seed is None else seed}"
                (run_dir / "out").mkdir(parents=True, exist_ok=True)
                record = cli([command, name, "--out", str((run_dir / "out").resolve()), *([] if seed is None else ["--seed", str(seed)])])
                (run_dir / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
                print(f"{run_dir.name}: exit {record['exit']}")


def _part(path: str) -> str:
    return "report.json" if path == "report.json" else "csv" if path.endswith(".csv") else "metadata"


def _files(run_dir: Path) -> dict[str, bytes]:
    out = run_dir / "out"
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def differing_parts(old: Path, new: Path) -> list[str]:
    """The parts of a run (``PARTS``) that are not byte-identical between two run directories."""
    rec_old, rec_new = (json.loads((d / "run.json").read_text(encoding="utf-8")) for d in (old, new))
    found = {key for key in ("exit", "stdout", "stderr") if rec_old[key] != rec_new[key]}
    files_old, files_new = _files(old), _files(new)
    found |= {_part(path) for path in files_old.keys() | files_new.keys() if files_old.get(path) != files_new.get(path)}
    return [p for p in PARTS if p in found]


def report_values(report: dict) -> dict[str, tuple[bool, float, float]]:
    """(pass, residual, tolerance) per check of a report: ``suite:check`` of a verify or leaves report,
    ``drift:monitor`` against ``drift_tol`` of a simulate report."""
    out = {f"{s['suite']}:{c['name']}": (c["pass"], float(c["residual"]), float(c["tol"])) for s in report.get("suites", []) for c in s["checks"]}
    for key, value in report.get("drift", {}).items():
        out[f"drift:{key}"] = (float(value) <= report["drift_tol"], float(value), float(report["drift_tol"]))
    return out


def _is_flag(residual: float, tol: float) -> bool:
    return tol == 0.5 and residual in (0.0, 1.0)


def least_headroom(report: dict) -> tuple[float, str] | None:
    """(residual/tol, check) of the residual check closest to failing, flags left out; None for a report without one.

    A zero tolerance gives 0 for a zero residual and inf otherwise; a NaN ratio counts as the largest."""
    ratios = [(r / t if t > 0 else 0.0 if r == 0 else math.inf, name) for name, (_, r, t) in report_values(report).items() if not _is_flag(r, t)]
    return max(ratios, key=lambda rc: (math.isnan(rc[0]), rc[0]), default=None)


def _headroom_text(found: tuple[float, str] | None) -> str:
    return "-" if found is None else f"{found[0]:.3g} {found[1]}"


def _report(run_dir: Path) -> dict:
    path = run_dir / "out" / "report.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def relative_move(old: float, new: float) -> float:
    """|new - old| over the larger magnitude: 1 for a move from or to 0, inf when either is not finite and they differ."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def diff(old_root: Path, new_root: Path) -> tuple[list[str], bool]:
    """The printed lines of the comparison, and whether every run is identical."""
    runs_old = {d.name for d in old_root.iterdir() if (d / "run.json").is_file()}
    runs_new = {d.name for d in new_root.iterdir() if (d / "run.json").is_file()}
    lines, verdicts, moves = [], [], []
    identical = 0
    for name in sorted(runs_old | runs_new):
        if name not in runs_old or name not in runs_new:
            lines.append(f"{name}: only in {'NEW' if name in runs_new else 'OLD'}")
            continue
        parts = differing_parts(old_root / name, new_root / name)
        identical += not parts
        lines.append(f"{name}: {'differs in ' + ', '.join(parts) if parts else 'identical'}")
        if "report.json" not in parts:
            continue
        old, new = report_values(_report(old_root / name)), report_values(_report(new_root / name))
        for check in sorted(old.keys() | new.keys()):
            was, now = old.get(check), new.get(check)
            if was is None or now is None:
                verdicts.append(f"  {name} {check}: {'added' if was is None else 'removed'}")
                continue
            if was[0] != now[0]:
                verdicts.append(f"  {name} {check}: {'pass' if was[0] else 'FAIL'} -> {'pass' if now[0] else 'FAIL'}")
            for label, a, b in (("residual", was[1], now[1]), ("tol", was[2], now[2])):
                if relative_move(a, b):
                    moves.append((relative_move(a, b), f"  {name} {check} {label}: {a!r} -> {b!r} (relative move {relative_move(a, b):.3g})"))
    total = len(runs_old | runs_new)
    lines.append(f"{identical} of {total} runs byte-identical")
    lines.append(f"verdict changes: {len(verdicts)}")
    lines.extend(verdicts)
    lines.append(f"moved residuals and tolerances: {len(moves)}")
    lines.extend(line for _, line in sorted(moves, key=lambda m: -m[0]))
    lines.append("least headroom per run (largest residual/tol, flags left out): OLD | NEW")
    for name in sorted(runs_old | runs_new):
        old, new = (least_headroom(_report(root / name)) if name in runs else None for root, runs in ((old_root, runs_old), (new_root, runs_new)))
        lines.append(f"  {name}: {_headroom_text(old)} | {_headroom_text(new)}")
    return lines, identical == total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="outputs", description="Write and compare the built-in scenario runs of a checkout.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="write the built-in runs into DIR")
    p_run.add_argument("dir", type=Path)
    p_run.add_argument("--seeds", type=parse_seeds, default=[], help="more seeds to run every built-in at: A-B or a,b,c")
    p_run.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1], help="the checkout to run (default: this script's)")
    p_diff = sub.add_parser("diff", help="compare the runs in OLD and NEW")
    p_diff.add_argument("old", type=Path)
    p_diff.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.dir, args.tree, args.seeds)
        return 0
    lines, same = diff(args.old, args.new)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
