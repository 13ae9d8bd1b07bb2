"""Hamiltonian vector fields from Poisson brackets, RK4 integration, drift monitors.

``integrate`` is the one RK4 stepper. It steps one state of a Poisson space,
held as Python floats, through ``codegen.compile_step``: a loop of
classical RK4 steps, compiled once per Hamiltonian into straight-line float
code that keeps the state in locals. Each step's four stages are the rows of
B(y) grad H(y), built from the nonzero entries of the bivector and, when the
Hamiltonian declares one, of its affine gradient A y + f; the stage and update
arithmetic sits between them. ``integrate`` runs one such loop per block of
CSV_BLOCK stored states. With affine data the same function also advances a
list of numpy columns, one member per entry; ``integrate`` itself takes one
trajectory at a time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import codegen
from .linalg import row_matvec
from .poisson import ChartError, PoissonSpace, ScalarField
from .report import csv_lines, dump_json
from .schema import ConfigError

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


def ham_vector_field(space: PoissonSpace, hamiltonian: ScalarField, point: Array) -> Array:
    """Velocity v_i = {x_i, H}(point) = sum_j B_ij dH/dx_j at one point, or per point of a stack (..., dim).

    The numpy reference for the stages of ``codegen.compile_step``, which
    sum in the order ``codegen._field_source`` documents: numpy may round
    a row in another order, or fuse a multiply and an add, so the two agree to
    a few ulps. Each row of a stack has the bits of its one-point call. It
    does not check the chart.
    """
    return row_matvec(space.bivector(point), hamiltonian.gradient(point))


def integrate(space: PoissonSpace, hamiltonian: ScalarField, x0: Array, h: float, n_steps: int,
              monitors: dict[str, ScalarField] | None = None) -> Trajectory:
    """Classical fixed-step RK4 on the coordinate chart; monitors at every step.

    Each block of CSV_BLOCK stored states is one call of the step compiled by
    ``codegen.compile_step``, which runs the block's steps in one compiled
    loop and gives their states as rows; the rows go into the
    stored trajectory, and the last one starts the next block. The step is
    compiled once and passed ``h`` as an argument, so runs at several step
    sizes share it. It keeps the association of the numpy expressions: each
    stage adds ``half * k`` or ``h * k`` to the state, and a step adds
    ``sixth * (k1 + 2 k2 + 2 k3 + k4)``, entry by entry. The steps run with
    numpy floating-point warnings off, and finiteness is checked once per
    block, not per stage. A non-finite state stays non-finite under later
    steps, so the first non-finite state of a block is the first of the run:
    DivergenceError names that step and carries the trajectory up to the last
    finite state. After divergence the step (and so the Hamiltonian's
    gradient) may still be evaluated on non-finite states, up to the end of
    the block. If the gradient raises on a non-finite stage, the step's state
    is non-finite and the run ends in DivergenceError as well; on a finite
    stage, its exception propagates.

    An ``n_steps`` whose stored trajectory numpy cannot allocate raises
    ConfigError naming ``'n_steps'``.

    The chart of ``x0`` is checked once. On a space with a chart box the
    accepted states are checked as well, as one stack once the steps are
    done: the affine bivector is defined off the box too, so steps past a
    state outside it waste work before the ChartError but cannot fail.

    Each monitor is called once on the whole stored trajectory, a stack of
    states, so its rows have the bits of one-point calls. On a diverged
    trajectory they run with numpy floating-point warnings off, since its
    last finite states may overflow a quadratic monitor.
    """
    if np.ndim(x0) != 1:  # check_chart also accepts a stack of points
        raise ChartError(f"x0 must be one point of {space.name}, got shape {np.shape(x0)}")
    space.check_chart(x0)
    if h <= 0:
        raise ValueError("step size must be positive")
    monitors = monitors or {}

    def record(traj: Trajectory) -> Trajectory:
        if space.box is not None:
            space.check_chart(traj.states[1:])
        traj.monitors = {name: q(traj.states) for name, q in monitors.items()}
        return traj

    step = codegen.compile_step(space, hamiltonian)
    x = np.asarray(x0, dtype=float).tolist()
    try:
        states = np.empty((n_steps + 1, len(x)))
    except (MemoryError, ValueError) as exc:  # ValueError: more rows than numpy can index
        raise ConfigError(f"'n_steps' = {n_steps} gives a trajectory too large to store: {exc}") from None
    states[0] = x
    h = float(h)
    half, sixth = 0.5 * h, h / 6.0
    with np.errstate(all="ignore"):
        for start in range(1, n_steps + 1, CSV_BLOCK):
            stop = min(start + CSV_BLOCK, n_steps + 1)
            rows = step(x, h, half, sixth, stop - start)
            states[start:stop] = rows
            x = rows[-1]
            bad = ~np.isfinite(states[start:stop]).all(axis=1)
            if bad.any():
                i = start + int(np.argmax(bad))
                raise DivergenceError(i, record(Trajectory(np.arange(i) * h, states[:i])))
    return record(Trajectory(np.arange(n_steps + 1) * h, states))


def monitor_drift(trajectory: Trajectory) -> dict[str, float]:
    """Per-monitor max |Q(t) - Q(0)| along the trajectory."""
    return {name: float(np.max(np.abs(series - series[0]))) for name, series in trajectory.monitors.items()}


def convergence_ratio(space: PoissonSpace, hamiltonian: ScalarField, x0: Array, h: float, t_final: float,
                      quantity: ScalarField) -> tuple[float, float, float]:
    """Drift(h) / Drift(h/2) of a conserved quantity; ~16 for 4th order."""
    n1 = int(round(t_final / h))
    n2 = 2 * n1
    d1 = monitor_drift(integrate(space, hamiltonian, x0, h, n1, {"q": quantity}))["q"]
    d2 = monitor_drift(integrate(space, hamiltonian, x0, h / 2, n2, {"q": quantity}))["q"]
    return d1 / d2 if d2 > 0 else float("inf"), d1, d2


# ---------------------------------------------------------------------------
# trajectory output
# ---------------------------------------------------------------------------


def write_trajectory_csv(trajectory: Trajectory, path: str | Path) -> None:
    """CSV with header time,x1..xn plus one column per monitor, floats as %.17g.

    The header goes through csv.writer, which quotes names such as <Pi,Gamma>.
    The body holds only numbers, which csv.writer would never quote; it is
    formatted CSV_BLOCK rows at a time by ``report.csv_lines``, with the same
    \\r\\n line endings.
    """
    path = Path(path)
    names = [f"x{i+1}" for i in range(trajectory.states.shape[1])]
    mon_names = sorted(trajectory.monitors)
    columns = [trajectory.times[:, None], trajectory.states, *(trajectory.monitors[m][:, None] for m in mon_names)]
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["time", *names, *mon_names])
        for start in range(0, trajectory.times.size, CSV_BLOCK):
            fh.write(csv_lines(np.hstack([c[start : start + CSV_BLOCK] for c in columns]), "\r\n"))


def write_run_metadata(path: str | Path, space: str, hamiltonian: str, h: float, n_steps: int, seed: int) -> None:
    dump_json({"space": space, "H": hamiltonian, "h": h, "n_steps": n_steps, "seed": seed}, str(path))
