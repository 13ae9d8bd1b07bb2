"""The Poisson groupoid (T*P x T*P)/G => T*P/G and its action on the symplectic leaves of T*P/G.

A point of the groupoid is held in gauge-fixed coordinates (``PairClassPoint``):
two legs over the pair groupoid of M, the second on the fiber-identity slice.
Its cotangent groupoid T*((PxP)/G) is T*P' for the trivial bundle
P' = (M x M) x G, so its bracket is ``poisson.cotangent_bracket`` on P', and
its two-form is ``poisson.canonical_two_form``.  The arrow joining two points
of one leaf is read off the group elements that drew them, for every group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fd
from .bundle import BoxBase, BundleSpec, ConnectionData, CotangentSample, Point
from .liealg import LieGroupSpec
from .linalg import row_matvec, row_norm
from .poisson import CoadjointOrbit, CotangentFn, Polynomial, canonical_two_form, cotangent_bracket, quotient_cotangent, random_polynomial
from .report import SuiteReport, worst
from .rng import stream

Array = np.ndarray


@dataclass(frozen=True)
class PairClassPoint:
    """Gauge-fixed point of (T*P x T*P)/G: legs ((m1, w), (m2, e)) with covectors.

    A stack of points carries the same leading axes on every field, as a
    ``bundle.Point`` stack does.
    """

    m1: Array
    w: Array
    m2: Array
    a1: Array
    b1: Array
    a2: Array
    b2: Array


def _pair_omega(bundle: BundleSpec, z: PairClassPoint) -> Array:
    """Matrix of the ambient form d(gamma + gamma) on gauge-slice tangents, one per point of a stack.

    Tangent layout: (dm1, eta, dm2, da1, db1, da2, db2).  This is T*(M x G x M)
    with covector (a1, b1, a2), plus db2, which pairs with nothing: the second
    leg stays on the fiber-identity slice, so its group direction vanishes.
    """
    k = 4 * bundle.d + 2 * bundle.n
    omega = canonical_two_form([bundle.d, bundle.group, bundle.d], np.concatenate([z.a1, z.b1, z.a2], axis=-1))
    out = np.zeros(omega.shape[:-2] + (k + bundle.n, k + bundle.n))
    out[..., :k, :k] = omega
    return out


def _pair_t(bundle: BundleSpec, z: PairClassPoint) -> Array:
    """Target map to T*P/G coordinates: class of the first leg."""
    return np.concatenate([z.m1, z.a1, row_matvec(bundle.group.Ad_star_inv(z.w), z.b1)], axis=-1)


def _pair_s(z: PairClassPoint) -> Array:
    """Source map to T*P/G coordinates: class of minus the second leg."""
    return np.concatenate([z.m2, -z.a2, -z.b2], axis=-1)


def _pair_product(lam: PairClassPoint, y: PairClassPoint) -> PairClassPoint:
    """Groupoid product in (T*P x T*P)/G of gauge-fixed representatives."""
    return PairClassPoint(lam.m1, lam.w @ y.w, y.m2, lam.a1, y.b1, y.a2, y.b2)


def groupoid_action_suite(bundle: BundleSpec, orbit: CoadjointOrbit, samples: int = 12, seed: int = 0) -> SuiteReport:
    """Target/source Poisson properties, orbit connectivity, and graph isotropy.

    Each variable is drawn once, as a block; each check is evaluated once
    over the stacked samples.
    """
    rep = SuiteReport(f"poisson.groupoid_action[{bundle.name}]")
    rng = stream(seed, f"poisson.groupoid_action/{bundle.name}")
    quot = quotient_cotangent(bundle)
    G = bundle.group
    d, n = bundle.d, bundle.n

    # T*Gamma = T*((PxP)/G) is T*P' for the trivial bundle P' = (M x M) x G,
    # in gauge coordinates (m1, m2; w) with fiber covectors (b1, b2) = (beta, -beta)
    arrows = BundleSpec(G, ConnectionData.flat(2 * d, n), BoxBase(np.vstack([bundle.base.box] * 2)))
    pair_t = partial(_pair_t, bundle)

    def on_arrows(f: Polynomial, leg) -> CotangentFn:
        def fn(s: CotangentSample) -> Array:
            base = s.point.base
            return f(leg(PairClassPoint(base[..., :d], s.point.fiber, base[..., d:], s.a[..., :d], s.b, s.a[..., d:], -s.b)))
        return CotangentFn(fn)

    # a random arrow lam of T*Gamma (m1, w, m2, a1, a2; b2 = -b1 = -beta), f and g on T*P/G, two leaf points to connect
    # (from g1 and g2), and the graph-isotropy draws: y (g_sum, b1, y_m1, y_w, y_m2, y_a1, y_a2) and lam's free part
    # (m1_0, w_0, a1_0); each kind of variable is one block
    m1, m2, from_m, to_m, y_m1, y_m2, m1_0 = bundle.random_base(rng, (7, samples))
    a1, a2, from_a, to_a, y_a1, y_a2, a1_0 = rng.standard_normal((7, samples, d))
    beta, b1 = rng.standard_normal((2, samples, n))
    g1, g2, g_sum, w, y_w, w_0 = G.exp(np.concatenate([G.random_algebra(rng, 0.8, (3, samples)), G.random_algebra(rng, lead=(3, samples))]))
    f, g = random_polynomial(rng, quot.dim, (2, samples)).unstack()

    lam = PairClassPoint(m1, w, m2, a1, beta, a2, -beta)
    s = CotangentSample(Point(np.concatenate([m1, m2], axis=1), w), np.concatenate([a1, a2], axis=1), beta)
    lhs = cotangent_bracket(arrows, on_arrows(f, pair_t), on_arrows(g, pair_t), s)
    w_t = worst(np.abs(lhs - quot.bracket(f, g, pair_t(lam))))
    lhs = cotangent_bracket(arrows, on_arrows(f, _pair_s), on_arrows(g, _pair_s), s)
    w_s = worst(np.abs(lhs + quot.bracket(f, g, _pair_s(lam))))

    # orbit connectivity: any two leaf points of J^{-1}(O)/G are joined by an arrow.  The arrow of T*Gamma from
    # z_from to z_to has w = g2 g1^-1 (Ad*_{w^-1} Ad*_{g1^-1} = Ad*_{g2^-1}) and (b1, b2) = (mu_from, -mu_from)
    mu_from, mu_to = (row_matvec(G.Ad_star_inv(el), orbit.mu0) for el in (g1, g2))
    arrow = PairClassPoint(to_m, g2 @ G.inverse(g1), from_m, to_a, mu_from, -from_a, -mu_from)
    z_from, z_to = np.concatenate([from_m, from_a, mu_from], axis=1), np.concatenate([to_m, to_a, mu_to], axis=1)
    w_conn = worst(row_norm(_pair_s(arrow) - z_from) + row_norm(pair_t(arrow) - z_to))

    # graph isotropy of the action map (Lagrangian by dimension count)
    bsum = row_matvec(G.Ad_star_inv(g_sum), orbit.mu0)  # b1 + b2 of y, a point of the orbit; lam's free part is (m1_0, w_0, a1_0)
    y = PairClassPoint(y_m1, y_w, y_m2, y_a1, b1, y_a2, bsum - b1)
    w_iso = _graph_isotropy(bundle, y, (m1_0, w_0, a1_0), orbit.tangent_span(bsum))

    rep.add("target_poisson", w_t, 1e-6)
    rep.add("source_anti_poisson", w_s, 1e-6)
    rep.add("orbit_connectivity", w_conn, 1e-9)
    rep.add("graph_isotropy", w_iso, 1e-7)
    rep.extras["trials"] = samples
    return rep


def _displaced(G: LieGroupSpec, z: PairClassPoint, directions: list[tuple], h: float) -> PairClassPoint:
    """z moved by -h and by +h along each direction: every field gains the leading axes (2, directions).

    A direction (slot, i, payload) adds t to entry i of a coordinate slot;
    "w" multiplies w by exp(t e_i) on the right; "bpair" moves b1 by t e_i
    and b2 by -t e_i; "borbit" moves b2 by t payload, one payload per point.
    """
    t = np.array([-h, h])
    steps = np.zeros((2, G.dim, G.dim))
    steps[:, range(G.dim), range(G.dim)] = t[:, None]
    turns = G.exp(steps)  # exp(-+h e_i)
    vals = {k: np.broadcast_to(v, (2, len(directions)) + v.shape).copy() for k, v in vars(z).items()}
    for j, (slot, i, payload) in enumerate(directions):
        if slot == "w":
            vals["w"][:, j] = z.w @ turns[:, i, None]
        elif slot == "bpair":
            vals["b1"][:, j] = z.b1 + steps[:, i, None]
            vals["b2"][:, j] = z.b2 - steps[:, i, None]
        elif slot == "borbit":
            vals["b2"][:, j] = z.b2 + t[:, None, None] * payload
        else:
            vals[slot][:, j, ..., i] += t[:, None]
    return PairClassPoint(**vals)


def _graph_isotropy(bundle: BundleSpec, y: PairClassPoint, free: tuple[Array, Array, Array], span: Array) -> float:
    """Isotropy of the action-graph tangent spaces for omega_Gamma + omega_L - omega_L, over stacked samples.

    y lies in the leaf and lam = lam_for(y) with the free part (m1_0, w_0,
    a1_0) is composable with it.  The graph tangents are the free lam moves
    with y frozen and the leaf moves of y that lam follows.  Each group of
    displaced points (lam's free moves, lam following y, y's moves, and the
    two products) holds every sample as one stack, differentiated by one
    ``fd.quotient`` and one ``fd.group_velocity``; a group at a time keeps
    the temporary arrays small, which keeps the heap from growing over many
    runs in one process.  ``span`` holds the orbit directions at b1 + b2 per
    sample; the result is the largest entry over every pair of tangents.
    """
    G = bundle.group
    d, n = bundle.d, bundle.n
    h = fd.FINE_STEP
    m1_0, w_0, a1_0 = free

    def lam_for(y: PairClassPoint, beta: Array) -> PairClassPoint:
        """The lam composable with y: its b1 is beta = Ad*_{y.w^-1} y.b1, and its free part is (m1_0, w_0, a1_0)."""
        m1, w, a1 = (np.broadcast_to(v, like.shape) for v, like in ((m1_0, y.m1), (w_0, y.w), (a1_0, y.a1)))
        return PairClassPoint(m1, w, y.m1, a1, beta, -y.a1, -beta)

    m_y = G.Ad_star_inv(y.w)
    lam0 = lam_for(y, row_matvec(m_y, y.b1))
    # the moves of the graph tangents: lam's free slots; the leaf moves of y (free slots, b-preserving pairs), then
    # the orbit moves of b2, one per algebra direction
    lam_dirs = [(slot, i, None) for slot, size in (("m1", d), ("w", n), ("a1", d)) for i in range(size)]
    y_dirs = [(slot, i, None) for slot, size in (("m1", d), ("w", n), ("m2", d), ("a1", d), ("a2", d), ("bpair", n)) for i in range(size)]
    y_dirs += [("borbit", i, span[:, :, i]) for i in range(n)]

    lam_moved, y_moved = _displaced(G, lam0, lam_dirs, h), _displaced(G, y, y_dirs, h)
    frozen = PairClassPoint(**{k: np.broadcast_to(v, (2, len(lam_dirs)) + v.shape) for k, v in vars(y).items()})
    # beta of the moved y: Ad*_{y.w^-1} is y's own except on the moves of w
    beta = row_matvec(m_y, y_moved.b1)
    turns = [j for j, (slot, _, _) in enumerate(y_dirs) if slot == "w"]
    beta[:, turns] = row_matvec(G.Ad_star_inv(y_moved.w[:, turns]), y_moved.b1[:, turns])
    lam_follow = lam_for(y_moved, beta)

    def tangents(z: PairClassPoint) -> Array:
        """Tangents (dm1, eta, dm2, da1, db1, da2, db2) from the points z moved by -h and +h (its leading axis)."""
        dv = fd.quotient(*np.concatenate([z.m1, z.m2, z.a1, z.b1, z.a2, z.b2], axis=-1), h)
        return np.concatenate([dv[..., :d], fd.group_velocity(G, z.w[0], z.w[1], h), dv[..., d:]], axis=-1)

    def form(z: PairClassPoint, *parts: Array) -> Array:
        """omega at z on every pair of the leg tangents T, parts joined into one (directions, layout) block per sample: T . Omega . T^T."""
        t = np.moveaxis(np.concatenate(parts), 1, 0).copy()
        return t @ _pair_omega(bundle, z) @ np.swapaxes(t, -1, -2)

    # omega_lam + omega_y - omega_z on all pairs at once, summed in place; the legs: lam (its free moves with y
    # frozen, then following y), y (frozen under the free lam moves, then its own moves), and their product
    t_y = tangents(y_moved)
    resid = form(lam0, tangents(lam_moved), tangents(lam_follow))
    resid += form(y, np.zeros((len(lam_dirs),) + t_y.shape[1:]), t_y)
    resid -= form(_pair_product(lam0, y), tangents(_pair_product(lam_moved, frozen)), tangents(_pair_product(lam_follow, y_moved)))
    return worst(np.abs(resid, out=resid))
