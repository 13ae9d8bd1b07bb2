"""The unreduced flow on T*G in body coordinates, for reduction cross-checks.

It is stepped by a plain numpy RK4 of its own, so comparing it against
``dynamics.integrate`` on a reduced space checks the reduced flow against an
independent integrator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from gaugemech import fd
from gaugemech.liealg import LieGroupSpec
from gaugemech.poisson import ScalarField

Array = np.ndarray


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
    differences (d_u along u exp(t e_i)); F takes a stack of u or of b and
    gives one value per row.
    """
    eye = np.eye(group.dim)
    grad_b = fd.central(lambda bb: F(u, bb), b, eye, fd.FINE_STEP)
    du = fd.central(lambda t: F(u @ group.exp(t), b), np.zeros(group.dim), eye, fd.FINE_STEP)
    return grad_b, group.ad_star(grad_b) @ b - du


def integrate_cotangent(group: LieGroupSpec, field: Callable[[Array, Array], tuple[Array, Array]],
                        u0: Array, b0: Array, h: float, n_steps: int) -> tuple[list[Array], Array]:
    """Classical RK4 on T*G in body coordinates (u, b), the matrix part advanced through the embedding.

    ``field(u, b)`` returns (xi, b'), with u' = u xi: for example
    ``partial(group_cotangent_field, group, reduced_h)`` or
    ``partial(body_cotangent_field, group, F)``. Returns the matrices u and
    the rows b at every step.
    """
    m = group.embed

    def rhs(state: Array) -> Array:
        uu = state[: m * m].reshape(m, m)
        xi, b_dot = field(uu, state[m * m :])
        return np.concatenate([(uu @ group.from_coords(xi)).reshape(-1), b_dot])

    x = np.concatenate([np.asarray(u0, dtype=float).reshape(-1), np.asarray(b0, dtype=float)])
    states = [x]
    for _ in range(n_steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(x)
    states = np.array(states)
    return [s[: m * m].reshape(m, m) for s in states], states[:, m * m :]
