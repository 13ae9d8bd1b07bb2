"""Hamiltonian vector fields from Poisson brackets, RK4 integration, drift monitors.

Every integrator (``integrate`` on a Poisson space, ``integrate_cotangent`` on
T*G in body coordinates) advances through the single RK4 stepper ``_rk4``,
which steps one state held as a list of Python floats. On a Poisson space the
right-hand side is ``PoissonSpace.compile_field``: B(y) grad H(y) compiled once
into straight-line float code from the nonzero entries of the bivector and,
when the Hamiltonian declares one, of its affine gradient A y + f. The
stepper takes one trajectory at a time; a batched ensemble is not here.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import fd
from .liealg import LieGroupSpec
from .poisson import ChartError, PoissonSpace, ScalarField

Array = np.ndarray

CSV_BLOCK = 512  # trajectory rows formatted per write


class DivergenceError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, step: int, trajectory: "Trajectory"):
        super().__init__(f"non-finite state at step {step}")
        self.step = step
        self.trajectory = trajectory


@dataclass
class Trajectory:
    times: Array
    states: Array
    monitors: dict[str, Array] = field(default_factory=dict)


def ham_vector_field(space: PoissonSpace, hamiltonian: ScalarField, point: Array | list[float]) -> Array | list[float]:
    """Velocity v_i = {x_i, H}(point) = sum_j B_ij dH/dx_j: a list for a list of floats, an array otherwise.

    The field is ``space.compile_field(hamiltonian)``, compiled once and
    kept by the space while the same hamiltonian calls. This is the
    per-stage right-hand side of ``integrate`` and does not check the chart:
    ``integrate`` checks the initial and accepted states, and
    ``PoissonSpace.bracket`` checks its point.
    """
    held, field = space._field
    if held is not hamiltonian:
        field = space.compile_field(hamiltonian)
    if type(point) is list:
        return field(point)
    return np.array(field(np.asarray(point, dtype=float).tolist()))


def _rk4(rhs: Callable[[list[float]], list[float]], x0: Array, h: float, n_steps: int) -> Trajectory:
    """Classical fixed-step RK4: the one stepper behind every integrator here.

    The state is a list of floats, and ``rhs`` maps one to a sequence of
    floats; each stage adds ``half * k`` or ``h * k`` to the state, and a step
    adds ``sixth * (k1 + 2 k2 + 2 k3 + k4)``, entry by entry with the
    association of the numpy expressions. The steps run with numpy
    floating-point warnings off, and finiteness is checked once per block of
    CSV_BLOCK stored states, not per stage. A non-finite state stays
    non-finite under later steps, so the first non-finite state of a block is
    the first of the run: DivergenceError names that step and carries the
    trajectory up to the last finite state. After divergence ``rhs`` may
    still be evaluated on non-finite states, up to the end of the block. If
    ``rhs`` raises on a non-finite state or stage, the run ends in
    DivergenceError as well.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x0, dtype=float).tolist()
    states = np.empty((n_steps + 1, len(x)))
    states[0] = x
    h = float(h)
    half, sixth = 0.5 * h, h / 6.0

    def divergence(lo: int, hi: int) -> DivergenceError | None:
        """DivergenceError at the first non-finite stored state of steps lo..hi-1, if any."""
        bad = ~np.isfinite(states[lo:hi]).all(axis=1)
        if not bad.any():
            return None
        step = lo + int(np.argmax(bad))
        return DivergenceError(step, Trajectory(np.arange(step) * h, states[:step]))

    with np.errstate(all="ignore"):
        for start in range(1, n_steps + 1, CSV_BLOCK):
            stop = min(start + CSV_BLOCK, n_steps + 1)
            for step in range(start, stop):
                y = x
                try:
                    k1 = rhs(y)
                    y = [a + half * b for a, b in zip(x, k1)]
                    k2 = rhs(y)
                    y = [a + half * b for a, b in zip(x, k2)]
                    k3 = rhs(y)
                    y = [a + h * b for a, b in zip(x, k3)]
                    k4 = rhs(y)
                except Exception:
                    if np.isfinite(y).all():
                        raise
                    # a non-finite stage makes this step's state non-finite, unless an earlier one already was
                    states[step] = np.nan
                    raise divergence(start, step + 1) from None
                x = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
                states[step] = x
            exc = divergence(start, stop)
            if exc is not None:
                raise exc
    return Trajectory(np.arange(n_steps + 1) * h, states)


def integrate(space: PoissonSpace, hamiltonian: ScalarField, x0: Array, h: float, n_steps: int,
              monitors: dict[str, ScalarField] | None = None) -> Trajectory:
    """Classical fixed-step RK4 on the coordinate chart; monitors at every step.

    Each stage calls ``ham_vector_field`` once. Finiteness is checked per
    block of stored states, as in ``_rk4``, so after a divergence the
    Hamiltonian's gradient may be evaluated on non-finite states for up to
    one block; DivergenceError names the first non-finite state.

    The chart of ``x0`` is checked once. On a space with a chart box every
    accepted state is checked as well, once the steps are done: the affine
    bivector is defined off the box too, so steps past a state outside it
    waste work before the ChartError but cannot fail.

    Monitors are evaluated over the whole stored trajectory with
    ``ScalarField.evaluate_rows``: one ``batch_fn`` call per monitor when the
    field has one, ``fn`` per row otherwise. On a diverged trajectory they
    run with numpy floating-point warnings off, since its last finite states
    may overflow a quadratic monitor.
    """
    if np.ndim(x0) != 1:  # check_chart also accepts a stack of points
        raise ChartError(f"x0 must be one point of {space.name}, got shape {np.shape(x0)}")
    space.check_chart(x0)
    monitors = monitors or {}

    def record(traj: Trajectory) -> Trajectory:
        if space.box is not None:
            for y in traj.states[1:]:
                space.check_chart(y)
        traj.monitors = {name: q.evaluate_rows(traj.states) for name, q in monitors.items()}
        return traj

    try:
        return record(_rk4(lambda y: ham_vector_field(space, hamiltonian, y), x0, h, n_steps))
    except DivergenceError as exc:
        with np.errstate(all="ignore"):
            record(exc.trajectory)
        raise


def monitor_drift(trajectory: Trajectory, quantities: dict[str, ScalarField] | None = None) -> dict[str, float]:
    """Per-quantity max |Q(t) - Q(0)| along the trajectory."""
    out: dict[str, float] = {}
    for name, series in trajectory.monitors.items():
        out[name] = float(np.max(np.abs(series - series[0])))
    if quantities:
        for name, q in quantities.items():
            series = q.evaluate_rows(trajectory.states)
            out[name] = float(np.max(np.abs(series - series[0])))
    return out


def convergence_ratio(space: PoissonSpace, hamiltonian: ScalarField, x0: Array, h: float, t_final: float,
                      quantity: ScalarField) -> tuple[float, float, float]:
    """Drift(h) / Drift(h/2) of a conserved quantity; ~16 for 4th order."""
    n1 = int(round(t_final / h))
    n2 = 2 * n1
    d1 = monitor_drift(integrate(space, hamiltonian, x0, h, n1, {"q": quantity}))["q"]
    d2 = monitor_drift(integrate(space, hamiltonian, x0, h / 2, n2, {"q": quantity}))["q"]
    return d1 / d2 if d2 > 0 else float("inf"), d1, d2


# ---------------------------------------------------------------------------
# the unreduced flow on T*G in body coordinates (for reduction cross-checks)
# ---------------------------------------------------------------------------


def group_cotangent_field(group: LieGroupSpec, reduced_h: ScalarField, u: Array, b: Array) -> tuple[Array, Array]:
    """Hamiltonian vector field on T*G of the invariant lift of a reduced Hamiltonian.

    The lift is f(u, b) = H(Ad*_{u^-1} b); in body coordinates the canonical
    field reads xi = grad_b f, b' = ad*_xi b - d_u f, with the u-derivative of
    the lift given exactly by the coadjoint chain rule.
    """
    trans = group.Ad_star_inv(u)
    grad_h = reduced_h.gradient(trans @ b)
    xi = trans.T @ grad_h
    return xi, group.ad_star(xi) @ b - group.coadjoint_chain_rule(trans, grad_h, b)


def body_cotangent_field(group: LieGroupSpec, F: Callable[[Array, Array], float], u: Array, b: Array) -> tuple[Array, Array]:
    """Canonical field on T*G in body coordinates for a general F(u, b).

    xi = grad_b F,  b' = ad*_xi b - d_u F, with both derivatives by central
    differences (d_u along u exp(t e_i)).
    """
    eye = np.eye(group.dim)
    grad_b = fd.central(lambda bb: F(u, bb), b, eye, fd.FINE_STEP)
    du = fd.central(lambda t: F(u @ group.exp(t), b), np.zeros(group.dim), eye, fd.FINE_STEP)
    return grad_b, group.ad_star(grad_b) @ b - du


def integrate_cotangent(group: LieGroupSpec, field: Callable[[Array, Array], tuple[Array, Array]],
                        u0: Array, b0: Array, h: float, n_steps: int) -> tuple[list[Array], Array]:
    """RK4 on T*G in body coordinates (u, b), the matrix part advanced through the embedding.

    ``field(u, b)`` returns (xi, b'), with u' = u xi: for example
    ``partial(group_cotangent_field, group, reduced_h)`` or
    ``partial(body_cotangent_field, group, F)``.
    """
    m = group.embed

    def rhs(state: list[float]) -> list[float]:
        state = np.array(state)
        uu = state[: m * m].reshape(m, m)
        xi, b_dot = field(uu, state[m * m :])
        return np.concatenate([(uu @ group.from_coords(xi)).reshape(-1), b_dot]).tolist()

    x0 = np.concatenate([np.asarray(u0, dtype=float).reshape(-1), np.asarray(b0, dtype=float)])
    try:
        states = _rk4(rhs, x0, h, n_steps).states
    except DivergenceError as exc:
        exc.trajectory.states = exc.trajectory.states[:, m * m :]
        raise
    return [s[: m * m].reshape(m, m) for s in states], states[:, m * m :]


# ---------------------------------------------------------------------------
# trajectory output
# ---------------------------------------------------------------------------


def write_trajectory_csv(trajectory: Trajectory, path: str | Path) -> None:
    """CSV with header time,x1..xn plus one column per monitor, floats as %.17g.

    The header goes through csv.writer, which quotes names such as <Pi,Gamma>.
    The body holds only numbers, which csv.writer would never quote; it is
    formatted CSV_BLOCK rows at a time with the same \\r\\n line endings.
    """
    path = Path(path)
    names = [f"x{i+1}" for i in range(trajectory.states.shape[1])]
    mon_names = sorted(trajectory.monitors)
    columns = [trajectory.times[:, None], trajectory.states, *(trajectory.monitors[m][:, None] for m in mon_names)]
    row_fmt = ",".join(["%.17g"] * (1 + len(names) + len(mon_names))) + "\r\n"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["time", *names, *mon_names])
        for start in range(0, trajectory.times.size, CSV_BLOCK):
            block = np.hstack([c[start : start + CSV_BLOCK] for c in columns])
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def write_run_metadata(path: str | Path, space: str, hamiltonian: str, h: float, n_steps: int, seed: int) -> None:
    doc = {"space": space, "H": hamiltonian, "h": float(f"{h:.17g}"), "n_steps": n_steps, "seed": seed}
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
