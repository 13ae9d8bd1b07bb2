"""Per-kernel timings (the kernel table of ROADMAP North star aim 1).

Each kernel runs on inputs drawn from the workload seed and is timed with
``timeit``: five repeats of a loop sized to about 40 ms, reported as the
minimum per-call time in microseconds. ``MOVES`` names the end-to-end metric
and workload that a faster kernel should move.
"""

from __future__ import annotations

import timeit

import numpy as np

MOVES = {
    "kernel.expm_us": "checks_per_s and scenario_s.p50 on verify-sweep",
    "kernel.logm_us": "checks_per_s on leaves-sweep",
    "kernel.Ad_us": "checks_per_s on verify-sweep",
    "kernel.bracket_us": "checks_per_s on verify-sweep (poisson.properties, poisson.jacobi)",
    "kernel.ham_rhs_us": "checks_per_s and scenario_s.p50 on heavy-top-sim",
    "kernel.rk4_step_us": "checks_per_s and scenario_s.p50 on heavy-top-sim",
    "kernel.fd_gradient_us": "checks_per_s on verify-sweep (FD gradients of nested brackets)",
    "kernel.quotient_bivector_us": "checks_per_s on verify-sweep (quotient Jacobi and properties)",
}

TARGET_LOOP_S = 0.04
REPEATS = 5


def _per_call_us(fn) -> float:
    timer = timeit.Timer(fn)
    one = max(timer.timeit(1), 1e-7)
    number = max(1, int(TARGET_LOOP_S / one))
    return min(timer.repeat(REPEATS, number)) / number * 1e6


def kernel_table(seed: int, builtins: dict) -> dict[str, float]:
    from gaugemech import bundle, dynamics, liealg, poisson, semidirect

    from workloads import X0_REL_RANGE

    rng = np.random.default_rng([int(seed), 7])
    so3 = liealg.so3()
    x, y = so3.random_algebra(rng, 0.8), so3.random_algebra(rng, 0.8)
    a = so3.from_coords(x)
    g = liealg.expm(a)

    top = builtins["heavy-top-lagrange"]["simulate"]
    model = semidirect.heavy_top_model(top["inertia"], top["mgl"], top["axis"])
    x6 = np.asarray(top["x0"]) * rng.uniform(1 - X0_REL_RANGE, 1 + X0_REL_RANGE, 6)
    fd_field = poisson.ScalarField(model.hamiltonian.fn)

    spec = builtins["so3-trivial-bundle"]["bundle"]
    quot = poisson.quotient_cotangent(bundle.bundle_from_json(spec, group_resolver=liealg.builtin_group))
    xq = np.concatenate([rng.uniform(-0.9, 0.9, 2), rng.standard_normal(5)])

    rk4_steps = 100
    cases = {
        "kernel.expm_us": lambda: liealg.expm(a),
        "kernel.logm_us": lambda: liealg.logm(g),
        "kernel.Ad_us": lambda: so3.Ad(g),
        "kernel.bracket_us": lambda: so3.bracket(x, y),
        "kernel.ham_rhs_us": lambda: dynamics.ham_vector_field(model.space, model.hamiltonian, x6),
        "kernel.rk4_step_us": lambda: dynamics.integrate(model.space, model.hamiltonian, x6, 1e-3, rk4_steps),
        "kernel.fd_gradient_us": lambda: fd_field.gradient(x6),
        "kernel.quotient_bivector_us": lambda: quot.bivector(xq),
    }
    out = {name: _per_call_us(fn) for name, fn in cases.items()}
    out["kernel.rk4_step_us"] /= rk4_steps
    return out
