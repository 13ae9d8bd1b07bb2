"""Scenario runner: verification suites, leaf reports, and simulations.

Usage:
    gaugemech verify|leaves|simulate <scenario.json | builtin-name>
              [--seed N] [--tol-scale X] [--out DIR] [--list-builtins]

A scenario is a single JSON document naming specs (built-in or inline or by
file path), the suites to run, and a mandatory seed.  Exit codes: 0 pass,
1 check failure, 2 configuration error, 3 numerical divergence.  Every field
is read through `gaugemech.schema`, so a malformed one exits 2 with a message
naming it.  A verify or leaves suite that raises becomes one failed
`suite_error` check naming the exception, and the remaining suites still run.
Reports are written as `report.json` with 17-significant-digit floats; a fixed
seed reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import bundle as bundle_mod
from . import liealg, poisson, schema

# groupoid, semidirect and dynamics are imported by the commands that run them, so a
# leaves run neither compiles nor holds them
from .report import Check, SuiteReport, csv_lines, dump_json
from .rng import stream
from .schema import ConfigError

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_DIVERGENCE = 3


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

_SO3_CONNECTION = {
    # A = (0.3 x dy, -0.2 y dx, 0.1 dx + 0.4 x y dy) in the so3 basis: degree <= 2
    "A": [
        [[], [[-0.2, [0, 1]]], [[0.1, [0, 0]]]],
        [[[0.3, [1, 0]]], [], [[0.4, [1, 1]]]],
    ]
}

_U1_CONNECTION = {"A": [[[[-0.5, [0, 1]]]], [[[0.5, [1, 0]]]]]}

BUILTIN_SCENARIOS: dict[str, dict] = {
    "so3-trivial-bundle": {
        "name": "so3-trivial-bundle",
        "kind": "verify",
        "seed": 20260810,
        "group": "so3",
        "bundle": {
            "kind": "TrivialProduct",
            "group": "so3",
            "base_box": [[-1.0, 1.0], [-1.0, 1.0]],
            "connection": _SO3_CONNECTION,
        },
        "suites": [
            "liealg.validate",
            "bundle.action",
            "bundle.connection",
            "bundle.momentum",
            "bundle.dual_sequence",
            "bundle.anchor_pullback",
            "groupoid.vb_axioms",
            "groupoid.laws",
            "groupoid.dual_structure",
            "groupoid.cores",
            "groupoid.momentum_morphism",
            "groupoid.ses",
            "poisson.properties",
            "poisson.jacobi",
            "poisson.dual_pair",
        ],
    },
    "heisenberg-verify": {
        "name": "heisenberg-verify",
        "kind": "verify",
        "seed": 20260810,
        "group": "heisenberg3",
        "bundle": {
            "kind": "TrivialProduct",
            "group": "heisenberg3",
            "base_box": [[-1.0, 1.0], [-1.0, 1.0]],
            "connection": {"A": [[[], [[0.2, [0, 0]]], []], [[[0.3, [1, 0]]], [], []]]},
        },
        "suites": [
            "liealg.validate",
            "bundle.action",
            "bundle.momentum",
            "bundle.dual_sequence",
            "groupoid.vb_axioms",
            "groupoid.cores",
            "groupoid.ses",
            "poisson.dual_pair",
        ],
    },
    "se3-verify": {
        "name": "se3-verify",
        "kind": "verify",
        "seed": 20260810,
        "semidirect": "so3_r3",
        "suites": [
            "semidirect.spec",
            "semidirect.trivialization",
            "semidirect.action",
            "semidirect.equivariance",
            "semidirect.pullback_form",
            "semidirect.momentum_form",
            "semidirect.reduced_sequence",
            "semidirect.total_bundle",
        ],
    },
    "so3-leaves": {
        "name": "so3-leaves",
        "kind": "leaves",
        "seed": 20260810,
        "group": "so3",
        "bundle": {
            "kind": "TrivialProduct",
            "group": "so3",
            "base_box": [[-1.0, 1.0], [-1.0, 1.0]],
            "connection": _SO3_CONNECTION,
        },
        "leaves": {"mu0": [0.0, 0.0, 1.0], "orbit_samples": 40, "samples": 20, "groupoid_action": True},
    },
    "so3-zero-leaf": {
        "name": "so3-zero-leaf",
        "kind": "leaves",
        "seed": 20260810,
        "group": "so3",
        "bundle": {
            "kind": "TrivialProduct",
            "group": "so3",
            "base_box": [[-1.0, 1.0], [-1.0, 1.0]],
            "connection": _SO3_CONNECTION,
        },
        "leaves": {"mu0": [0.0, 0.0, 0.0], "orbit_samples": 10, "samples": 15},
    },
    "u1-magnetic": {
        "name": "u1-magnetic",
        "kind": "leaves",
        "seed": 20260810,
        "group": "t1",
        "bundle": {
            "kind": "TrivialProduct",
            "group": "t1",
            "base_box": [[-1.0, 1.0], [-1.0, 1.0]],
            "connection": _U1_CONNECTION,
        },
        "leaves": {"mu0": [1.0], "orbit_samples": 10, "samples": 12, "chi": [1.0]},
    },
    "heavy-top-lagrange": {
        "name": "heavy-top-lagrange",
        "kind": "simulate",
        "seed": 20260810,
        "simulate": {
            "model": "heavy_top",
            "inertia": [1.0, 1.0, 0.5],
            "mgl": 1.0,
            "axis": [0.0, 0.0, 1.0],
            "x0": [0.8, -0.3, 0.6, 0.2, 0.1, 0.9],
            "h": 1e-3,
            "n_steps": 10000,
            "convergence_check": True,
        },
    },
    "heavy-top-free": {
        "name": "heavy-top-free",
        "kind": "simulate",
        "seed": 20260810,
        "simulate": {
            "model": "heavy_top",
            "inertia": [1.0, 2.0, 3.0],
            "mgl": 0.0,
            "axis": [0.0, 0.0, 1.0],
            "x0": [1.0, 0.2, -0.4, 0.3, 0.4, 0.5],
            "h": 1e-3,
            "n_steps": 10000,
            "convergence_check": False,
        },
    },
}


# ---------------------------------------------------------------------------
# spec resolution
# ---------------------------------------------------------------------------


def _resolve(kind: str, ref: Any, basedir: Path) -> Any:
    """The ``group``, ``bundle`` or ``semidirect`` spec a scenario field names: a built-in name, else
    a JSON file (relative to the scenario's directory), else an inline object.  Groups inside the spec
    resolve the same way.  Every error becomes a ConfigError naming the field."""

    def group(g: Any) -> liealg.LieGroupSpec:
        return _resolve("group", g, basedir)

    if kind == "group":
        builtin, from_json = liealg.builtin_group, liealg.spec_from_json
    elif kind == "bundle":
        builtin, from_json = None, lambda doc: bundle_mod.bundle_from_json(doc, group_resolver=group)
    else:
        from . import semidirect

        builtin, from_json = semidirect.builtin_semidirect, lambda doc: semidirect.sd_from_json(doc, group_resolver=group)
    try:
        if isinstance(ref, str):
            if builtin is not None:
                try:
                    return builtin(ref)
                except KeyError:
                    pass
            path = basedir / ref
            if not path.is_file():
                raise ValueError(f"{ref!r} is neither a built-in name nor an existing file")
            with path.open(encoding="utf-8") as fh:
                ref = json.load(fh)
        return from_json(schema.section(kind, ref))
    except (ValueError, OSError) as exc:  # the readers' and the constructors' errors, and unreadable files
        raise ConfigError(f"{kind!r} spec: {exc}") from None


def load_scenario(arg: str) -> tuple[dict, Path]:
    """A copy of the scenario document and the directory its spec files are named relative to.

    Its ``name`` is read here, "unnamed" when absent, so that every runner's
    report reads ``scenario["name"]``.
    """
    if arg in BUILTIN_SCENARIOS:
        scenario, basedir = json.loads(json.dumps(BUILTIN_SCENARIOS[arg])), Path.cwd()
    else:
        path = Path(arg)
        if not path.is_file():
            raise ConfigError(f"scenario {arg!r} is neither a builtin nor an existing file")
        with path.open(encoding="utf-8") as fh:
            scenario, basedir = schema.section("scenario", json.load(fh)), path.parent
    scenario["name"] = schema.text("name", scenario.get("name", "unnamed"))
    return scenario, basedir


# ---------------------------------------------------------------------------
# the verify suite registry
# ---------------------------------------------------------------------------


def _suite_registry() -> dict[str, Callable[[dict, int], list[SuiteReport]]]:
    from . import groupoid, semidirect

    def need(ctx: dict, key: str) -> Any:
        if ctx.get(key) is None:
            raise ConfigError(f"suite requires a {key!r} entry in the scenario")
        return ctx[key]

    def groupoid_axioms(ctx, seed):
        b = need(ctx, "bundle")
        return [groupoid.vb_axiom_suite(b, tag, seed=seed) for tag in groupoid.SPACE_TAGS]

    def groupoid_laws(ctx, seed):
        b = need(ctx, "bundle")
        return [groupoid.groupoid_law_suite(b, tag, seed=seed) for tag in groupoid.SPACE_TAGS]

    def groupoid_ses(ctx, seed):
        b = need(ctx, "bundle")
        return [groupoid.ses_fiber_check(b, sid, samples=50, seed=seed) for sid in ("duzyVtrojka", "duzyVdual", "Adual", "quotiented")]

    def poisson_properties(ctx, seed):
        b = need(ctx, "bundle")
        spaces = [poisson.lie_poisson(b.group), poisson.canonical_cotangent(b.d or 1)]
        if b.kind == "TrivialProduct":
            spaces.append(poisson.quotient_cotangent(b))
        return [poisson.bracket_property_suite(s, trials=60, seed=seed) for s in spaces]

    def poisson_jacobi(ctx, seed):
        b = need(ctx, "bundle")
        rep = SuiteReport("poisson.jacobi")
        rep.add("canonical", poisson.jacobi_check(poisson.canonical_cotangent(max(b.d, 1)), trials=10, seed=seed), poisson.JACOBI_TOL)
        rep.add("lie_poisson", poisson.jacobi_check(poisson.lie_poisson(b.group), trials=10, seed=seed), poisson.JACOBI_TOL)
        if b.kind == "TrivialProduct":
            rep.add("quotient", poisson.jacobi_check(poisson.quotient_cotangent(b), trials=6, seed=seed), poisson.JACOBI_TOL)
        return [rep]

    def sd_total_bundle(ctx, seed):
        sd = need(ctx, "semidirect")
        b = semidirect.total_bundle(sd)
        return [
            bundle_mod.action_suite(b, samples=25, seed=seed),
            bundle_mod.momentum_suite(b, samples=40, seed=seed),
            bundle_mod.anchor_pullback_suite(b, samples=25, seed=seed),
            semidirect.momentum_cross_check_suite(sd, samples=40, seed=seed),
        ]

    return {
        "liealg.validate": lambda ctx, seed: [liealg.validate_spec(need(ctx, "group"), seed=seed)],
        "bundle.action": lambda ctx, seed: [bundle_mod.action_suite(need(ctx, "bundle"), samples=40, seed=seed)],
        "bundle.connection": lambda ctx, seed: [bundle_mod.connection_suite(need(ctx, "bundle"), samples=40, seed=seed)],
        "bundle.momentum": lambda ctx, seed: [bundle_mod.momentum_suite(need(ctx, "bundle"), samples=80, seed=seed)],
        "bundle.dual_sequence": lambda ctx, seed: [bundle_mod.dual_sequence_suite(need(ctx, "bundle"), samples=60, seed=seed)],
        "bundle.anchor_pullback": lambda ctx, seed: [bundle_mod.anchor_pullback_suite(need(ctx, "bundle"), samples=40, seed=seed)],
        "groupoid.vb_axioms": groupoid_axioms,
        "groupoid.laws": groupoid_laws,
        "groupoid.dual_structure": lambda ctx, seed: [groupoid.dual_structure_suite(need(ctx, "bundle"), seed=seed)],
        "groupoid.cores": lambda ctx, seed: [groupoid.core_suite(need(ctx, "bundle"), fibers=50, seed=seed)],
        "groupoid.momentum_morphism": lambda ctx, seed: [groupoid.momentum_morphism_suite(need(ctx, "bundle"), samples=60, seed=seed)],
        "groupoid.ses": groupoid_ses,
        "poisson.properties": poisson_properties,
        "poisson.jacobi": poisson_jacobi,
        "poisson.dual_pair": lambda ctx, seed: [poisson.dual_pair_check(need(ctx, "bundle"), trials=100, seed=seed)],
        "semidirect.spec": lambda ctx, seed: [semidirect.spec_suite(need(ctx, "semidirect"), samples=40, seed=seed)],
        "semidirect.trivialization": lambda ctx, seed: [semidirect.trivialization_suite(need(ctx, "semidirect"), samples=40, seed=seed)],
        "semidirect.action": lambda ctx, seed: [semidirect.action_suite(need(ctx, "semidirect"), samples=40, seed=seed)],
        "semidirect.equivariance": lambda ctx, seed: [semidirect.equivariance_suite(need(ctx, "semidirect"), samples=200, seed=seed)],
        "semidirect.pullback_form": lambda ctx, seed: [semidirect.pullback_form_suite(need(ctx, "semidirect"), samples=30, seed=seed)],
        "semidirect.momentum_form": lambda ctx, seed: [semidirect.momentum_form_suite(need(ctx, "semidirect"), samples=20, seed=seed)],
        "semidirect.reduced_sequence": lambda ctx, seed: [semidirect.reduced_sequence_suite(need(ctx, "semidirect"), samples=25, seed=seed)],
        "semidirect.total_bundle": sd_total_bundle,
    }


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _suites_doc(scenario: dict, kind: str, seed: int, tol_scale: float, reports: list[SuiteReport]) -> dict[str, Any]:
    """The report document of a verify or leaves run, every residual check's tolerance scaled by ``tol_scale``.

    A flag's tolerance is not scaled: its verdict is yes or no.
    """
    for rep in reports:
        for check in rep.checks:
            if not check.flag:
                check.tol *= tol_scale
    return {
        "scenario": scenario["name"],
        "kind": kind,
        "seed": seed,
        "tol_scale": tol_scale,
        "pass": all(r.passed for r in reports),
        "suites": [r.to_dict() for r in sorted(reports, key=lambda r: r.name)],
        "failures": sorted(f"{r.name}:{c.name}" for r in reports for c in r.failures()),
    }


def _run_suite(name: str, run: Callable[[], list[SuiteReport]]) -> list[SuiteReport]:
    """The reports of one verify or leaves suite; a suite that raises gives one failed ``suite_error``
    check instead, so the remaining suites still run.  A ConfigError is not a fault of the suite."""
    try:
        return run()
    except ConfigError:
        raise
    except Exception as exc:
        import traceback  # only on a fault: a module-level import adds about 0.3 MB to every run's peak RSS
        traceback.print_exc()
        return [SuiteReport(name, [Check("suite_error", float("inf"), 0.0, {"error": type(exc).__name__, "message": str(exc)})])]


def run_verify(scenario: dict, basedir: Path, seed: int, tol_scale: float, out_dir: Path) -> int:
    suites = [schema.text("suites", name) for name in schema.items("suites", scenario.get("suites"), low=1)]
    ctx = {kind: _resolve(kind, scenario[kind], basedir) if kind in scenario else None for kind in ("group", "bundle", "semidirect")}
    registry = _suite_registry()
    reports: list[SuiteReport] = []
    for name in suites:
        if name not in registry:
            raise ConfigError(f"unknown suite {name!r}")
        reports.extend(_run_suite(name, lambda: registry[name](ctx, seed)))
    doc = _suites_doc(scenario, "verify", seed, tol_scale, reports)
    dump_json(doc, str(out_dir / "report.json"))
    return EXIT_PASS if doc["pass"] else EXIT_CHECK_FAILURE


def run_leaves(scenario: dict, basedir: Path, seed: int, tol_scale: float, out_dir: Path) -> int:
    cfg = schema.section("leaves", scenario.get("leaves"))
    b = _resolve("bundle", scenario.get("bundle"), basedir)
    if b.kind != "TrivialProduct":
        raise ConfigError("leaves need a TrivialProduct bundle (class coordinates on a base box)")
    mu0 = schema.array("mu0", cfg.get("mu0"), (b.n,))
    chi = schema.array("chi", cfg["chi"], (b.n,)) if "chi" in cfg else None
    if chi is not None and not poisson.is_character(b.group, chi):
        raise ConfigError(f"'chi' must be a character (a one-point coadjoint orbit, ad*_x chi = 0 for every x), got {chi.tolist()}")
    orbit_samples = schema.integer("orbit_samples", cfg.get("orbit_samples", 40))
    samples = schema.integer("samples", cfg.get("samples", 20))
    groupoid_action = schema.flag("groupoid_action", cfg.get("groupoid_action", False))
    orbit = poisson.coadjoint_orbit(b.group, mu0, n_samples=orbit_samples, seed=seed)
    reports = _run_suite("poisson.leaf", lambda: [poisson.leaf_structure(b, orbit, samples=samples, seed=seed)])
    extras: dict[str, Any] = {"orbit_dim": orbit.dim, "leaf_dim": 2 * b.d + orbit.dim}

    if groupoid_action:
        reports += _run_suite("poisson.groupoid_action", lambda: [poisson.groupoid_action_suite(b, orbit, samples=8, seed=seed)])

    if chi is not None:
        magnetic = _run_suite("poisson.magnetic", lambda: [poisson.magnetic_term(b, chi, samples=samples if "samples" in cfg else 12, seed=seed)[1]])
        reports += magnetic
        extras["magnetic_closedness_residual"] = magnetic[0].extras.get("magnetic_closedness_residual")

    doc = _suites_doc(scenario, "leaves", seed, tol_scale, reports)
    doc.update(extras)
    dump_json(doc, str(out_dir / "report.json"))

    # sampled leaf points as CSV: class coordinates (m, a, bbar), one stacked section over the drawn bases
    rng = stream(seed, "cli.leaf_points")
    mus = np.array(orbit.samples[:samples])
    m, rho = bundle_mod.draw_samples(len(mus), lambda: (b.random_base(rng), rng.standard_normal(b.d)))
    cls = b.sigma(m, mus)
    rows = np.concatenate([m, cls.rep.a + rho, cls.rep.b], axis=1)
    with (out_dir / "leaf_points.csv").open("w", encoding="utf-8") as fh:
        fh.write(",".join([f"m{i+1}" for i in range(b.d)] + [f"a{i+1}" for i in range(b.d)] + [f"b{i+1}" for i in range(b.n)]) + "\n")
        fh.write(csv_lines(rows, "\n"))
    return EXIT_PASS if doc["pass"] else EXIT_CHECK_FAILURE


def run_simulate(scenario: dict, basedir: Path, seed: int, tol_scale: float, out_dir: Path) -> int:
    from . import dynamics, semidirect

    cfg = schema.section("simulate", scenario.get("simulate"))
    if schema.text("model", cfg.get("model", "heavy_top")) != "heavy_top":
        raise ConfigError(f"'model' must be 'heavy_top', got {cfg['model']!r}")
    x0, axis, inertia = (schema.array(key, cfg.get(key), (n,)) for key, n in (("x0", 6), ("axis", 3), ("inertia", 3)))
    with np.errstate(divide="ignore", over="ignore"):  # a tiny positive moment's reciprocal, the Hamiltonian's coefficient, overflows
        inv_i = 1.0 / inertia
    if not np.all(inertia > 0) or not np.all(np.isfinite(inv_i)):
        raise ConfigError(f"'inertia' must hold three positive moments with finite reciprocals, got {cfg['inertia']!r}")
    n_steps = schema.integer("n_steps", cfg.get("n_steps"))
    h, mgl = schema.number("h", cfg.get("h")), schema.number("mgl", cfg.get("mgl"))
    if not h > 0:
        raise ConfigError(f"step size 'h' must be positive, got {cfg['h']!r}")
    convergence_check = schema.flag("convergence_check", cfg.get("convergence_check", False))
    model = semidirect.heavy_top_model(inertia, mgl, axis)
    doc: dict[str, Any] = {
        "scenario": scenario["name"],
        "kind": "simulate",
        "seed": seed,
        "model": {"inertia": list(model.inertia), "mgl": model.mgl, "axis": list(model.axis)},
        "h": h,
        "n_steps": n_steps,
    }
    try:
        traj = dynamics.integrate(model.space, model.hamiltonian, x0, h, n_steps, monitors=model.monitors())
    except dynamics.DivergenceError as exc:
        doc["pass"] = False
        doc["divergence_step"] = exc.step
        doc["last_valid_time"] = float(exc.trajectory.times[-1]) if exc.trajectory.times.size else 0.0
        dump_json(doc, str(out_dir / "report.json"))
        print(f"simulation diverged: {exc}; see report.json", file=sys.stderr)
        return EXIT_DIVERGENCE

    drift = dynamics.monitor_drift(traj)
    doc["drift"] = drift
    drift_tol = 1e-6 * tol_scale
    passed = all(v <= drift_tol for k, v in drift.items())
    if convergence_check:
        ratio, d1, d2 = dynamics.convergence_ratio(model.space, model.hamiltonian, x0, h=8e-3, t_final=4.0, quantity=model.hamiltonian)
        doc["convergence"] = {"ratio": ratio, "drift_h": d1, "drift_h_half": d2}
        passed = passed and (12.0 <= ratio <= 20.0)
    doc["drift_tol"] = drift_tol
    doc["pass"] = passed
    dump_json(doc, str(out_dir / "report.json"))
    dynamics.write_trajectory_csv(traj, out_dir / "trajectory.csv")
    dynamics.write_run_metadata(out_dir / "trajectory.meta.json", model.space.name, "heavy_top", h, n_steps, seed)
    return EXIT_PASS if passed else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gaugemech", description="Verification and simulation scenario runner.")
    parser.add_argument("command", choices=["verify", "leaves", "simulate"], nargs="?")
    parser.add_argument("scenario", nargs="?", help="scenario JSON file or builtin name")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--tol-scale", type=float, default=1.0, help="multiply every residual tolerance (a positive finite number)")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--list-builtins", action="store_true")
    args = parser.parse_args(argv)

    if args.list_builtins:
        for name in sorted(BUILTIN_SCENARIOS):
            print(f"{name}  ({BUILTIN_SCENARIOS[name]['kind']})")
        return EXIT_PASS
    if args.command is None or args.scenario is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        scenario, basedir = load_scenario(args.scenario)
        if scenario.get("kind") not in (None, args.command):
            raise ConfigError(f"scenario kind {scenario.get('kind')!r} does not match command {args.command!r}")
        seed = schema.integer("seed", args.seed if args.seed is not None else scenario.get("seed"), -math.inf)
        tol_scale = schema.number("--tol-scale", args.tol_scale)
        if not tol_scale > 0:
            raise ConfigError(f"'--tol-scale' must be positive, got {args.tol_scale!r}")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        runner = {"verify": run_verify, "leaves": run_leaves, "simulate": run_simulate}[args.command]
        code = runner(scenario, basedir, seed, tol_scale, out_dir)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if code == EXIT_CHECK_FAILURE:
        print("one or more checks failed; see report.json", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
