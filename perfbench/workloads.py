"""Seeded scenario documents for the three benchmark workloads.

A workload is a scenario kind and a list of built-in scenarios. Cycle ``c``
of a run draws one scenario seed and the workload's other inputs from
``(workload seed, c)``, so the same workload seed always yields the same
documents. The documents are plain JSON written to files; the program under
test sees nothing else.
"""

from __future__ import annotations

import copy

import numpy as np

# Relative half-width of the heavy-top x0 perturbation. Each component of the
# built-in x0 is scaled by a factor drawn uniformly from [1 - r, 1 + r]. At
# 5% the energy drift stays far below its 1e-6 tolerance and the RK4
# convergence ratio stays well inside its [12, 20] window on every seed
# tried, while the trajectories still differ from seed to seed.
X0_REL_RANGE = 0.05

VERIFY = ("so3-trivial-bundle", "heisenberg-verify", "se3-verify")
LEAVES = ("so3-leaves", "so3-zero-leaf", "u1-magnetic")
HEAVY_TOP = ("heavy-top-lagrange", "heavy-top-free")

WORKLOADS = {
    "verify-sweep": ("verify", VERIFY),
    "leaves-sweep": ("leaves", LEAVES),
    "heavy-top-sim": ("simulate", HEAVY_TOP),
}

# RK4 steps of the built-in convergence check: t_final 4.0 at h = 8e-3, then
# again at h/2 (see cli.run_simulate and dynamics.convergence_ratio).
CONVERGENCE_STEPS = 500 + 1000


def cycle_rng(seed: int, cycle: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(cycle)])


def _unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _tiny(doc: dict) -> dict:
    """Shrink a document to a fast variant for the smoke test."""
    if doc["kind"] == "verify":
        doc["suites"] = doc["suites"][:2]
    elif doc["kind"] == "leaves":
        doc["leaves"].update(orbit_samples=4, samples=3)
    else:
        doc["simulate"]["n_steps"] = 200
    return doc


def cycle_documents(builtins: dict, workload: str, seed: int, cycle: int, tiny: bool = False) -> list[dict]:
    """Scenario documents of one cycle: each scenario of the workload once."""
    kind, names = WORKLOADS[workload]
    rng = cycle_rng(seed, cycle)
    scenario_seed = int(rng.integers(1, 2**31))
    docs = []
    for name in names:
        doc = copy.deepcopy(builtins[name])
        doc["seed"] = scenario_seed
        if name == "so3-leaves":
            # nonzero mu0 keeps the coadjoint orbit two-dimensional
            doc["leaves"]["mu0"] = (rng.uniform(0.5, 1.5) * _unit_vector(rng, 3)).tolist()
        elif name == "u1-magnetic":
            chi = [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))]
            doc["leaves"]["chi"] = chi
            doc["leaves"]["mu0"] = chi
        elif kind == "simulate":
            x0 = np.asarray(doc["simulate"]["x0"], dtype=float)
            doc["simulate"]["x0"] = (x0 * rng.uniform(1 - X0_REL_RANGE, 1 + X0_REL_RANGE, x0.size)).tolist()
        doc["name"] = f"{name}@{cycle}"
        docs.append(_tiny(doc) if tiny else doc)
    return docs


def rk4_steps(doc: dict) -> int:
    """RK4 steps a simulate document makes, convergence check included."""
    cfg = doc.get("simulate")
    if cfg is None:
        return 0
    return int(cfg["n_steps"]) + (CONVERGENCE_STEPS if cfg.get("convergence_check") else 0)
