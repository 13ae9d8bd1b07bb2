"""gaugemech benchmark: seeded scenario workloads driven through ``cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Workloads: verify-sweep, leaves-sweep, heavy-top-sim (see perfbench/README.md).

``--trace 0`` is the timed run. After set-up it runs the workload's scenarios
closed loop, one at a time, each (scenario, seed) twice in a row, cycle after
cycle with fresh seeds, and starts no cycle that would end after
``--seconds``. It prints the end-to-end metrics, with scenario and set-up
times scaled to a reference machine speed (see reference.py).

``--trace 1`` is a fixed-work run for the per-layer metrics. It runs the
first cycle once untraced and once traced (see spans.py), then times the
kernel table (see kernels.py). ``--seconds`` does not apply.

Every scenario run counts as failed when its exit code is not 0, when any
check verdict is not pass, when an expected output is missing, or when the
two runs of its (scenario, seed) wrote different report.json bytes. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give every metric with its unit,
failed_frac and the provenance. All files go to perfbench/out/.
Exits 2 without a result when the gaugemech sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Modules that use numpy (workloads, reference, spans, kernels, gaugemech) are
# imported inside functions: the BLAS thread variables must be set before
# numpy loads, and set-up time counts the numpy import.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 20
CONVERGENCE_WINDOW = (12.0, 20.0)  # accepted RK4 convergence ratio, as in cli.run_simulate


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="gaugemech scenario benchmark")
    p.add_argument("--workload", required=True, choices=["verify-sweep", "leaves-sweep", "heavy-top-sim"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="shrunken scenarios, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(args: argparse.Namespace, t0: float):
    """Import gaugemech and write the first cycle's scenario documents."""
    import gaugemech
    from gaugemech import cli

    import workloads

    import_s = time.perf_counter() - t0
    if not Path(gaugemech.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported gaugemech from {gaugemech.__file__}, not from {SRC}")
    docs = workloads.cycle_documents(cli.BUILTIN_SCENARIOS, args.workload, args.seed, 0, args.tiny)
    paths = write_documents(docs, OUT / ("probe" if args.setup_probe else "docs"))
    return cli, workloads, list(zip(docs, paths)), import_s, time.perf_counter() - t0


def write_documents(docs: list[dict], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in docs:
        path = directory / (doc["name"].split("@")[0] + ".json")
        path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
        paths.append(path)
    return paths


def setup_probe(args: argparse.Namespace) -> dict:
    """Set-up time of a fresh process that stops before the first scenario,
    with the reference loop time it measured right after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# scenario runs and their verdicts
# ---------------------------------------------------------------------------


def verdict_table(report: dict) -> dict[str, bool]:
    """Per-check verdicts of one report.json."""
    if report["kind"] != "simulate":
        return {f"{s['suite']}:{c['name']}": c["pass"] is True for s in report["suites"] for c in s["checks"]}
    tol = report["drift_tol"]
    table = {f"drift[{k}]": isinstance(v, float) and v <= tol for k, v in report["drift"].items()}
    if "convergence" in report:
        ratio = report["convergence"]["ratio"]
        table["convergence_ratio"] = isinstance(ratio, float) and CONVERGENCE_WINDOW[0] <= ratio <= CONVERGENCE_WINDOW[1]
    return table


def expected_outputs(doc: dict) -> dict[str, int | None]:
    """Output files a scenario must write, with their line counts where fixed."""
    if doc["kind"] == "simulate":
        return {"report.json": None, "trajectory.csv": doc["simulate"]["n_steps"] + 2, "trajectory.meta.json": None}
    if doc["kind"] == "leaves":
        return {"report.json": None, "leaf_points.csv": None}
    return {"report.json": None}


def run_scenario(cli, doc: dict, path: Path, out_dir: Path, runner=None) -> dict:
    """One timed ``cli.main`` call plus the checks of what it wrote."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = [doc["kind"], str(path), "--out", str(out_dir)]
    t = time.perf_counter()
    code = runner(cli.main, argv) if runner else cli.main(argv)
    seconds = time.perf_counter() - t

    run = {"scenario": doc["name"], "seed": doc["seed"], "exit": code, "seconds": seconds, "problems": []}
    try:
        raw = (out_dir / "report.json").read_bytes()
        report = json.loads(raw)
        table = verdict_table(report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raw, report, table = b"", {}, {}
        run["problems"].append(f"unreadable report.json: {exc!r}")
    run["report"] = raw
    run["verdicts"] = {k: "pass" if v else "fail" for k, v in table.items()}
    run["checks"] = len(table)
    if code != 0:
        run["problems"].append(f"exit code {code}")
    failed = sorted(k for k, v in table.items() if not v)
    if failed:
        run["problems"].append(f"failed checks {failed}")
    if report and (report.get("pass") is not True or not table):
        run["problems"].append("report does not pass")
    run["output_bytes"] = 0
    for name, lines in expected_outputs(doc).items():
        f = out_dir / name
        if not f.is_file():
            run["problems"].append(f"missing {name}")
            continue
        data = f.read_bytes()
        run["output_bytes"] += len(data)
        got = data.count(b"\n")
        if lines is not None and got != lines:
            run["problems"].append(f"{name} has {got} lines, expected {lines}")
    return run


def mark_pair(first: dict, second: dict) -> str | None:
    """Determinism gate: both runs of one (scenario, seed) must agree byte for byte."""
    if first["report"] == second["report"]:
        return None
    for run in (first, second):
        run["problems"].append("report.json differs between the two runs of this (scenario, seed)")
    return f"{first['scenario']} seed {first['seed']}"


# ---------------------------------------------------------------------------
# the two run modes
# ---------------------------------------------------------------------------


def timed_loop(cli, workloads, args, first: list) -> tuple[list[dict], list[str], list[dict], float, int]:
    """Closed loop over cycles; set-up probes run at even steps of loop time.

    Each scenario run lies between two reference loops (see reference.py).
    Spreading the probes over the run lets set-up time sample the same
    machine states as the scenarios. Probe time is not loop time.
    """
    import reference

    runs, mismatches, probes = [], [], []
    cycle = 0
    busy = 0.0
    t = time.perf_counter()
    ref = reference.loop_s()
    while True:
        if cycle == 0:
            pairs = first
        else:
            docs = workloads.cycle_documents(cli.BUILTIN_SCENARIOS, args.workload, args.seed, cycle, args.tiny)
            pairs = list(zip(docs, write_documents(docs, OUT / "docs")))
        for doc, path in pairs:
            pair = []
            for side in "ab":
                run = run_scenario(cli, doc, path, OUT / f"run-{side}")
                after = reference.loop_s()
                run["scaled_s"] = reference.scale(run["seconds"], ref, after)
                ref = after
                pair.append(run)
            bad = mark_pair(*pair)
            if bad:
                mismatches.append(bad)
            runs += pair
            busy += time.perf_counter() - t
            if busy >= len(probes) * args.seconds / SETUP_PROBES and len(probes) < SETUP_PROBES:
                probe = setup_probe(args)
                after = reference.loop_s()
                probe["reference_s"] = (ref + probe["reference_s"] + after) / 3
                probes.append(probe)
                ref = after
            t = time.perf_counter()
        cycle += 1
        if busy * (cycle + 1) / cycle > args.seconds:
            return runs, mismatches, probes, busy, cycle


def end_to_end(cli, workloads, args, first, setup_s: float) -> tuple[dict, dict, list[dict], list[str]]:
    import reference

    reference.loop_s()  # warm-up
    ref = reference.loop_s()
    runs, mismatches, probes, busy, cycles = timed_loop(cli, workloads, args, first)
    setups = [{"setup_s": setup_s, "reference_s": ref}] + probes
    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    checks: dict[str, int] = {}
    for r in runs:
        name = r["scenario"].split("@")[0]
        scaled.setdefault(name, []).append(r["scaled_s"])
        raw.setdefault(name, []).append(r["seconds"])
        checks[name] = r["checks"]
    median_s = {name: statistics.median(v) for name, v in scaled.items()}
    raw_s = {name: statistics.median(v) for name, v in raw.items()}
    steps = sum(workloads.rk4_steps(doc) for doc, _ in first)
    times = sorted(r["seconds"] for r in runs)
    metrics = {
        "setup_s": statistics.median(reference.scale(p["setup_s"], p["reference_s"], p["reference_s"]) for p in setups),
        # one cycle's checks over the sum of its scenarios' median times to verdict
        "checks_per_s": sum(checks.values()) / sum(median_s.values()),
        # median over the workload's scenarios of each one's median time to verdict
        "scenario_s.p50": statistics.median(median_s.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras = {
        "setup_s.raw": statistics.median(p["setup_s"] for p in setups),
        "setup_s.samples": len(setups),
        "checks_per_s.raw": sum(checks.values()) / sum(raw_s.values()),
        "checks_per_s.loop_wall": sum(r["checks"] for r in runs) / busy,
        "scenario_s.p50.raw": statistics.median(raw_s.values()),
        "scenario_s.samples": len(times),
        "loop_wall_s": busy,
        "cycles": cycles,
    }
    for q in (99, 90, 75):
        if len(times) * (100 - q) / 100 >= 10:
            extras[f"scenario_s.p{q}.raw"] = statistics.quantiles(times, n=100)[q - 1]
            break
    for name in sorted(median_s):
        extras[f"scenario_s.p50[{name}]"] = median_s[name]
    if steps:
        extras["rk4_steps_per_s"] = steps / sum(median_s.values())
    return metrics, extras, runs, mismatches


LEAF_SUITES = ("poisson.leaf_structure", "poisson.groupoid_action_suite", "poisson.magnetic_term")
SUITE_GROUPS = {
    "bundle.suites": lambda lab: lab.startswith("bundle.") and lab.endswith("_suite"),
    "groupoid.suites": lambda lab: lab.startswith("groupoid.") and (lab.endswith("_suite") or lab == "groupoid.ses_fiber_check"),
    "semidirect.suites": lambda lab: lab.startswith("semidirect.") and lab.endswith("_suite"),
    "poisson.leaves": lambda lab: lab in LEAF_SUITES,
}


def per_layer(cli, workloads, args, first, import_s: float) -> tuple[dict, dict, list[dict], list[str]]:
    import kernels
    import spans

    untraced = [run_scenario(cli, doc, path, OUT / "run-a") for doc, path in first]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = []
        for i, (doc, path) in enumerate(first):
            tracer.scenario_id = i
            traced.append(run_scenario(cli, doc, path, OUT / "run-b", lambda main, argv: tracer.span("bench.scenario", main, argv)))
    finally:
        tracer.uninstall()
    mismatches = [m for m in map(mark_pair, untraced, traced) if m]
    tracer.save(OUT / f"spans-{args.workload}.npz")

    calls, self_s = spans.summarize(tracer)
    wall_u = sum(r["seconds"] for r in untraced)
    wall_t = sum(r["seconds"] for r in traced)
    steps = tracer.counters["dynamics.rk4_steps"]
    rhs = calls.get("dynamics.ham_vector_field", 0)
    m: dict[str, float] = {}
    for name in ("liealg.expm", "liealg.Ad", "liealg.to_coords", "liealg.logm", "poisson.bracket.quotient",
                 "poisson.bivector.lie_poisson", "poisson.check_chart", "poisson.gradient"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("bundle.quotient_rep", "bundle.momentum", "groupoid.product", "semidirect.tsigma_matrix"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("dynamics.ham_vector_field", "dynamics.integrate", "dynamics.write_trajectory_csv",
                 "cli.load_scenario", "report.dump_json"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for group, member in SUITE_GROUPS.items():
        m[f"{group}.self_s"] = sum(v for lab, v in self_s.items() if member(lab))
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = sum(v for lab, v in self_s.items() if lab.startswith(layer + "."))
    m.update({
        "dynamics.rk4_steps": steps,
        "dynamics.rhs_evals": rhs,
        "dynamics.rhs_evals_per_step": rhs / steps if steps else 0.0,
        "dynamics.rk4_steps_per_s": steps / wall_u,
        "cli.output_bytes": sum(r["output_bytes"] for r in traced),
        "import.gaugemech_s": import_s,
        "trace.wall_s": wall_t,
        "trace.overhead_frac": wall_t / wall_u - 1.0,
    })
    m.update(kernels.kernel_table(args.seed, cli.BUILTIN_SCENARIOS))

    extras = {
        "trace.spans": len(tracer.start),
        "trace.nesting_violations": spans.nesting_violations(*(tracer.arrays()[k] for k in ("parent", "start_ns", "end_ns"))),
        "trace.untraced_wall_s": wall_u,
    }
    if extras["trace.nesting_violations"]:
        mismatches.append(f"{extras['trace.nesting_violations']} spans outside their parent")
    return m, extras, untraced + traced, mismatches


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def provenance(args: argparse.Namespace) -> dict:
    import numpy as np

    import gaugemech

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    describe = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            describe = done.stdout.strip() or f"unavailable ({done.stderr.strip()})"
        except (OSError, subprocess.TimeoutExpired) as exc:
            describe = f"unavailable ({exc!r})"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gaugemech": gaugemech.__version__,
        "git_describe": describe,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def emit(args, values: dict, extras: dict, runs: list[dict], mismatches: list[str]) -> None:
    from kernels import MOVES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed = sum(1 for r in runs if r["problems"])
    prov = provenance(args)

    for name, entry in metrics.items():
        moves = f"  (should move {MOVES[name]})" if name in MOVES else ""
        print(f"{name} = {entry['value']:.6g} {entry['unit']}{moves}")
    for name, value in extras.items():
        print(f"  ({name} = {value:.6g})" if isinstance(value, float) else f"  ({name} = {value})")
    print(f"failed_frac = {failed / len(runs):.6g} ({failed} of {len(runs)} scenario runs)")
    for r in runs:
        if r["problems"]:
            print(f"FAILED {r['scenario']} seed {r['seed']}: {'; '.join(r['problems'])}")
    for m in mismatches:
        print(f"MISMATCH {m}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    record = {
        "provenance": prov, "metrics": metrics, "extras": extras, "mismatches": mismatches,
        "runs": [{k: v for k, v in r.items() if k != "report"} for r in runs],
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and not mismatches, "attempted": len(runs), "failed": failed, "metrics": metrics}))


def main(argv: list[str] | None = None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "gaugemech" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: the gaugemech sources or BENCHMARK.json are missing under {ROOT}", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in BLAS_VARS})  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    cli, workloads, first, import_s, setup_s = set_up(args, t0)
    if args.setup_probe:
        import reference

        reference.loop_s()  # warm-up
        print(json.dumps({"setup_s": setup_s, "reference_s": reference.loop_s()}))
        return 0
    mode = per_layer if args.trace else end_to_end
    values, extras, runs, mismatches = mode(cli, workloads, args, first, import_s if args.trace else setup_s)
    emit(args, values, extras, runs, mismatches)
    return 0


if __name__ == "__main__":
    sys.exit(main())
