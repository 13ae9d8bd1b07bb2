"""Central differences: every finite-difference derivative of the package.

Closed forms run and finite differences check them; the few run paths that
differentiate numerically (a ``ScalarField`` without an exact gradient,
``dynamics.body_cotangent_field``) use the same two-point central formula

    (f(x + h d) - f(x - h d)) / (2 h),

with error O(h^2) (Nocedal & Wright, Numerical Optimization, 2nd ed., 2006,
section 8.1), taken at one of the fixed steps below.  A move on a group,
such as u -> u exp(t e_i), is a function of exp-chart coordinates; a curve
on a group is differentiated by its left-trivialized velocity.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .liealg import LieGroupSpec

Array = np.ndarray

FINE_STEP = 1e-6  # curve velocities: anchor pullback, leaf span, graph isotropy, semidirect pullback, body fields
GRAD_STEP = 1e-5  # ScalarField and T*P gradients, the magnetic pushforward, the momentum-form and d(gamma) oracles
NESTED_STEP = 1e-4  # gradients of nested brackets, whose values are themselves differences
CLOSED_STEP = 1e-3  # exterior derivative of the magnetic two-form, itself pushed forward by differences


def quotient(minus: Any, plus: Any, h: float) -> Any:
    """(plus - minus) / (2 h): the central quotient of values at the endpoints -h and +h."""
    return (plus - minus) / (2 * h)


def central(fn: Callable[[Array], Any], x: Array, directions, h: float) -> Array:
    """Central differences of ``fn`` at ``x``, one row per direction d: (fn(x + h d) - fn(x - h d)) / (2 h).

    With the unit vectors as directions, x + h e_i has the bits of x with h
    added to entry i.  ``x`` may be a stack of points when ``fn`` takes
    stacks, and each direction may carry the same stack axes (one direction
    per point): each step broadcasts over the stack, so every point is
    displaced with the bits of its one-point call.
    """
    x = np.asarray(x, dtype=float)
    return np.array([quotient(fn(x - step), fn(x + step), h) for step in h * np.asarray(directions, dtype=float)])


def group_velocity(G: LieGroupSpec, minus: Array, plus: Array, h: float) -> Array:
    """Left-trivialized velocity of a group curve from its points at -h and +h: log(minus^-1 plus) / (2 h), per pair of stacked endpoints."""
    return G.log(G.inverse(minus) @ plus) / (2 * h)
