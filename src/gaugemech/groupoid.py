"""Concrete VB-groupoids over the pair groupoid P x P => P and their duals.

A VB-groupoid over P x P is fixed by linear maps on its fibres, so one engine,
``VBGroupoid``, runs all four spaces.  Elements are stacks: N arrows (p, q),
each a stack of points (``bundle.Point`` with a leading axis of length N),
with fibre vectors x of shape (N, k); a side element is a stack of points
with side vectors.  Extra leading axes on x broadcast against the arrows.  A
single element is the batch of one: points without the leading axis and x of
shape (k,), run through the same code.  Each space is six matrices: the side
maps ``src`` and ``tgt``, the identity ``unit``, the inverse ``inv``, and the
two halves of the product

    (p, q, x)(q, r, y) = (p, r, left x + right y),

and each structure map is one ``x @ M.T`` over the whole stack.

The four spaces over a trivialized bundle P:

    T(PxP)    x = (v, w), side bundle TP:
                  s(v,w) = w, t = v, eps(v) = (v,v), i(v,w) = (w,v), (v,w)(w,z) = (v,z)
    PxgxP     x = X in g, side bundle P x g:
                  s = t = X, eps(X) = X, i = id, (p,X,q)(q,X,r) = (p,X,r)
    T*PxT*P   x = (phi, psi), side bundle T*P, with the twisted structure
                  s(phi,psi) = -psi, t = phi, eps(phi) = (phi,-phi),
                  i(phi,psi) = (-psi,-phi), (phi,psi)(-psi,lam) = (phi,lam)
    Pxg*xP    x = Xs in g*, side bundle the zero bundle over P:
                  eps = 0, i(Xs) = -Xs, (p,Xs,q)(q,Ys,r) = (p,Xs+Ys,r)

plus the annihilator subspace TV0(PxP) inside T*PxT*P and the quotient
(TPxTP)/g with gauge-fixed representatives resolved through the connection.

The short exact sequences and the cores are read off the maps they name,
each applied to a basis stack at the stacked arrows (``bundle.map_matrix``):
I2 is the vertical lift on both legs, A2 is ``quot_rep`` in class
coordinates, A2* is the transpose of A2, I2* is ``j2``, and a core is the
kernel of ``space_ops(...).src``.

The Pradines dual of T(PxP) is computed from the defining pairings (duality
of source/target against core products, composition by factorization,
identity by core decomposition) and cross-validated against the closed-form
cotangent structure, which is the independent ground truth.

The axiom, law, dual-structure and momentum-morphism suites read their
identities off the fibre basis: one arrow chain and the identity matrix of the
joint fibre space, which is exact because the structure maps are linear in the
fibre vector and do not read the arrow.  Every other suite draws as every
suite of the package does: each of its variables once, as a block with one
leading axis per sample (its points through ``BundleSpec.random_points``,
exponentiated once), so its number of random calls does not grow with its
sample count.  Each check is evaluated
once over the stack and reports the worst row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundle import BundleSpec, CotangentSample, Point, map_matrix
from .linalg import exactness, rank_gap, row_dot, row_matvec, row_norm
from .report import SuiteReport, worst
from .rng import stream

Array = np.ndarray

AXIOM_TOL = 1e-11
COMPOSE_TOL = 1e-10
RANK_CUT = 1e-8


@dataclass(frozen=True)
class VBElement:
    """A stack of arrows (p, q) of a VB-groupoid with their fibre vectors x."""

    p: Point
    q: Point
    x: Array


@dataclass(frozen=True)
class SideElement:
    """A stack of side-bundle elements: points and side vectors (empty for the zero bundle)."""

    point: Point
    x: Array


def _lead(point: Point) -> tuple[int, ...]:
    """Stack shape of a point: () for a single point, (N,) for N points."""
    return point.fiber.shape[:-2]


def _unstack(point: Point) -> list[Point]:
    """The stacks along the first axis of a point stack: (m, N, ...) to m stacks of N points."""
    return [Point(base, fiber) for base, fiber in zip(point.base, point.fiber)]


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class VBGroupoid:
    """Groupoid and vector bundle operations of one space, from six structure matrices.

    ``src`` and ``tgt`` (side x fibre) give the source and target side vectors,
    ``unit`` (fibre x side) the identity, ``inv`` (fibre x fibre) the inverse,
    and ``left``, ``right`` (fibre x fibre) the product.  Every entry is 0 or
    +-1 with at most two nonzeros per row, so every structure map is exact.
    Distances are per row of the stack.
    """

    def __init__(self, bundle: BundleSpec, tag: str, src: Array, tgt: Array, unit: Array, inv: Array, left: Array, right: Array):
        self.bundle, self.tag = bundle, tag
        self.src, self.tgt, self.unit, self.inv, self.left, self.right = src, tgt, unit, inv, left, right
        # snap keeps the part of b that tgt does not read and writes source(a) into the rest
        self.keep = np.eye(inv.shape[0]) - tgt.T @ tgt
        self.carry = tgt.T @ src

    def source(self, el: VBElement) -> SideElement:
        return SideElement(el.q, el.x @ self.src.T)

    def target(self, el: VBElement) -> SideElement:
        return SideElement(el.p, el.x @ self.tgt.T)

    def identity(self, side: SideElement) -> VBElement:
        return VBElement(side.point, side.point, side.x @ self.unit.T)

    def inverse(self, el: VBElement) -> VBElement:
        return VBElement(el.q, el.p, el.x @ self.inv.T)

    def snap(self, a: VBElement, b: VBElement) -> VBElement:
        """Replace b's target side by source(a) (projection onto composability)."""
        return VBElement(a.q, b.q, b.x @ self.keep.T + a.x @ self.carry.T)

    def product(self, a: VBElement, b: VBElement) -> VBElement:
        resid = np.ravel(self.side_distance(self.source(a), self.target(b)))
        row = int(np.argmax(resid))
        if resid[row] > COMPOSE_TOL:
            raise ValueError(f"non-composable elements in {self.tag} (row {row}: residual {resid[row]:.2e})")
        # right never reads the part of b that snap would overwrite
        return VBElement(a.p, b.q, a.x @ self.left.T + b.x @ self.right.T)

    def add(self, a: VBElement, b: VBElement) -> VBElement:
        return VBElement(a.p, a.q, a.x + b.x)

    def neg(self, a: VBElement) -> VBElement:
        return VBElement(a.p, a.q, -1.0 * a.x)

    def zero(self, p: Point, q: Point) -> VBElement:
        return VBElement(p, q, np.zeros(_lead(p) + (self.inv.shape[0],)))

    def side_distance(self, s1: SideElement, s2: SideElement) -> float | Array:
        return self.bundle.point_distance(s1.point, s2.point) + row_norm(s1.x - s2.x)

    def side_add(self, s1: SideElement, s2: SideElement) -> SideElement:
        return SideElement(s1.point, s1.x + s2.x)

    def distance(self, a: VBElement, b: VBElement) -> float | Array:
        darr = self.bundle.point_distance(a.p, b.p) + self.bundle.point_distance(a.q, b.q)
        return darr + row_norm(a.x - b.x)


SPACE_TAGS = ("T(PxP)", "PxgxP", "T*PxT*P", "Pxg*xP")


def space_ops(bundle: BundleSpec, tag: str) -> VBGroupoid:
    """The structure matrices of one of the four spaces over the pair groupoid of P."""
    if tag in ("T(PxP)", "T*PxT*P"):
        # fibre (v, w) or (phi, psi); the cotangent pair twists source, identity and inverse by -1
        sgn = 1.0 if tag == "T(PxP)" else -1.0
        e, z = np.eye(bundle.tangent_dim), np.zeros((bundle.tangent_dim,) * 2)
        return VBGroupoid(
            bundle, tag, src=np.hstack([z, sgn * e]), tgt=np.hstack([e, z]), unit=np.vstack([e, sgn * e]),
            inv=np.block([[z, sgn * e], [sgn * e, z]]), left=np.block([[e, z], [z, z]]), right=np.block([[z, z], [z, e]]),
        )
    e = np.eye(bundle.n)
    if tag == "PxgxP":
        return VBGroupoid(bundle, tag, src=e, tgt=e, unit=e, inv=e, left=e, right=np.zeros_like(e))
    if tag == "Pxg*xP":
        none = np.zeros((0, bundle.n))
        return VBGroupoid(bundle, tag, src=none, tgt=none, unit=none.T, inv=-e, left=e, right=e)
    raise KeyError(f"unknown VB-groupoid space {tag!r}")


def _pair(u: Array, v: Array) -> Array:
    """<(phi, psi), (v, w)> = phi.v + psi.w, summed leg by leg, per row."""
    t = u.shape[-1] // 2
    return row_dot(u[..., :t], v[..., :t]) + row_dot(u[..., t:], v[..., t:])


def _covectors(bundle: BundleSpec, el: VBElement) -> tuple[CotangentSample, CotangentSample]:
    """The legs (phi at p, psi at q) of an element of T*PxT*P."""
    d, t = bundle.d, bundle.tangent_dim
    return CotangentSample(el.p, el.x[..., :d], el.x[..., d:t]), CotangentSample(el.q, el.x[..., t : t + d], el.x[..., t + d :])


# ---------------------------------------------------------------------------
# membership helpers for constrained spaces
# ---------------------------------------------------------------------------


def j2(bundle: BundleSpec, el: VBElement) -> Array:
    """J_2(phi, psi) = phi o Tkappa_p(e) + psi o Tkappa_q(e)."""
    phi, psi = _covectors(bundle, el)
    return bundle.momentum(phi) + bundle.momentum(psi)


def tv0_membership_residual(bundle: BundleSpec, el: VBElement) -> float | Array:
    """Membership defect of T^{V0}(PxP): the annihilator condition J_2 = 0."""
    return row_norm(j2(bundle, el))


def quot_rep(bundle: BundleSpec, el: VBElement) -> VBElement:
    """Gauge-fixed representative of a class in (TP x TP)/g, per arrow of a stack.

    The algebra acts by X: (v, w) -> (v + vert_p X, w + vert_q X); the
    representative subtracts X = alpha_p(v) so the first leg is horizontal.
    """
    t = bundle.tangent_dim
    shift = bundle.vertical_lift(bundle.alpha(el.p, el.x[..., :t]))
    return VBElement(el.p, el.q, np.concatenate([el.x[..., :t] - shift, el.x[..., t:] - shift], axis=-1))


# ---------------------------------------------------------------------------
# VB-groupoid axiom suite
# ---------------------------------------------------------------------------


def _basis_draw(bundle: BundleSpec, rng: np.random.Generator, arrows: int, widths: tuple[int, ...]) -> tuple[list[Point], list[Array]]:
    """One arrow chain of ``arrows`` points broadcast to the rows of the identity
    matrix of the joint fibre space, and that matrix split into column blocks of ``widths``.

    Exact only while every structure map is linear in the fibre vector and does
    not read the arrow (points are only routed): an identity linear in the joint
    fibre vector then holds at all arrows iff it holds on this basis.  An engine
    whose maps read the points must go back to sampling arrows and vectors.
    """
    rows = sum(widths)
    chain = bundle.random_points(rng, (arrows,))
    stacked = [Point(np.broadcast_to(p.base, (rows,) + p.base.shape), np.broadcast_to(p.fiber, (rows,) + p.fiber.shape)) for p in _unstack(chain)]
    return stacked, np.split(np.eye(rows), np.cumsum(widths)[:-1], axis=1)


def vb_axiom_suite(bundle: BundleSpec, space: str, seed: int = 0) -> SuiteReport:
    """Interchange law and side identities on the fibre basis over one composable arrow chain."""
    ops = space_ops(bundle, space)
    rep = SuiteReport(f"groupoid.vb_axioms[{space}]")
    rng = stream(seed, f"groupoid.vb_axioms/{space}/{bundle.name}")
    k = ops.inv.shape[0]
    # an arrow chain p, q, r and nine fibre vectors
    (P, Q, R), (x_eta1, x_eta2, x_xi1, x_xi2, x_b1, x_b2, x_a1, x_a2, x_eta) = _basis_draw(bundle, rng, 3, (k,) * 9)
    w = {}

    eta1, eta2 = VBElement(Q, R, x_eta1), VBElement(Q, R, x_eta2)
    # xi_i over (p, q) with source snapped to target(eta_i)
    xi1 = _with_source(ops, VBElement(P, Q, x_xi1), ops.target(eta1))
    xi2 = _with_source(ops, VBElement(P, Q, x_xi2), ops.target(eta2))
    lhs = ops.product(ops.add(xi1, xi2), ops.add(eta1, eta2))
    rhs = ops.add(ops.product(xi1, eta1), ops.product(xi2, eta2))
    w["interchange"] = ops.distance(lhs, rhs)

    # identity section is additive over a common side fiber
    b1, b2 = ops.source(VBElement(P, Q, x_b1)), ops.source(VBElement(P, Q, x_b2))
    w["identity_additive"] = ops.distance(ops.identity(ops.side_add(b1, b2)), ops.add(ops.identity(b1), ops.identity(b2)))

    # inversion is additive over a common arrow
    a1, a2 = VBElement(P, Q, x_a1), VBElement(P, Q, x_a2)
    w["inverse_additive"] = ops.distance(ops.inverse(ops.add(a1, a2)), ops.add(ops.inverse(a1), ops.inverse(a2)))

    # zero section is multiplicative, and compatible with inversion
    w["zero_multiplicative"] = ops.distance(ops.zero(P, R), ops.product(ops.zero(P, Q), ops.zero(Q, R)))
    w["zero_inverse"] = ops.distance(ops.zero(Q, P), ops.inverse(ops.zero(P, Q)))

    # (-eta)(-xi) = -(eta xi)
    eta = _with_source(ops, VBElement(P, Q, x_eta), ops.target(eta1))
    w["neg_product"] = ops.distance(ops.product(ops.neg(eta), ops.neg(eta1)), ops.neg(ops.product(eta, eta1)))

    for name, resid in sorted(w.items()):
        rep.add(name, worst(resid), AXIOM_TOL)
    rep.extras["basis_rows"] = 9 * k
    rep.extras["space"] = space
    return rep


def groupoid_law_suite(bundle: BundleSpec, space: str, seed: int = 0) -> SuiteReport:
    """Pure groupoid laws on the fibre basis: s/t of identities, associativity, involution, inverse law."""
    ops = space_ops(bundle, space)
    rep = SuiteReport(f"groupoid.laws[{space}]")
    rng = stream(seed, f"groupoid.laws/{space}/{bundle.name}")
    k = ops.inv.shape[0]
    # arrows p, q, r, s and four fibre vectors
    (P, Q, R, S), (x_el, x_a, x_b, x_c) = _basis_draw(bundle, rng, 4, (k,) * 4)
    w = {}

    el = VBElement(P, Q, x_el)
    side = ops.source(el)
    ident = ops.identity(side)
    w["identity_source_target"] = ops.side_distance(ops.source(ident), side) + ops.side_distance(ops.target(ident), side)

    a = VBElement(P, Q, x_a)
    b = _with_target(ops, VBElement(Q, R, x_b), ops.source(a))
    c = _with_target(ops, VBElement(R, S, x_c), ops.source(b))
    w["associativity"] = ops.distance(ops.product(ops.product(a, b), c), ops.product(a, ops.product(b, c)))

    w["involution"] = ops.distance(ops.inverse(ops.inverse(el)), el)
    w["inverse_product"] = ops.distance(ops.product(el, ops.inverse(el)), ops.identity(ops.target(el)))
    for name, resid in sorted(w.items()):
        rep.add(name, worst(resid), AXIOM_TOL)
    rep.extras["basis_rows"] = 4 * k
    return rep


def _with_source(ops: VBGroupoid, el: VBElement, side: SideElement) -> VBElement:
    """Rebuild el so that source(el) equals the given side element."""
    # snap(a, b) replaces target(b) by source(a); apply to the inverse and flip back
    anchor = ops.identity(side)
    return ops.inverse(ops.snap(anchor, ops.inverse(el)))


def _with_target(ops: VBGroupoid, el: VBElement, side: SideElement) -> VBElement:
    anchor = ops.identity(side)
    return ops.snap(anchor, el)


# ---------------------------------------------------------------------------
# Pradines dual of T(PxP), from the defining pairings
# ---------------------------------------------------------------------------


class DualOfPairTangent:
    """The dual VB-groupoid of Omega = T(PxP), built from the duality pairings.

    Elements of Omega* over an arrow (x, y) are covector pairs (phi_x, psi_y)
    pairing with (v_x, w_y) as phi.v + psi.w.  Source/target, composition and
    identities are evaluated purely through the pairing formulas, so they can
    be cross-checked against the closed-form structure of T*PxT*P.  Each map
    takes one Omega product over the stack of core (or fibre) basis vectors
    at every arrow and pairs the result row by row.
    """

    def __init__(self, bundle: BundleSpec):
        self.bundle = bundle
        self.omega = space_ops(bundle, "T(PxP)")

    def core_element(self, x: Point, v: Array) -> VBElement:
        """Core of Omega at x: (v_x, 0_x) over the identity arrow (x, x)."""
        return VBElement(x, x, np.concatenate([v, np.zeros_like(v)], axis=-1))

    def dual_target(self, Phi: VBElement) -> SideElement:
        """<beta~*(Phi), k> = <Phi, k 0_gamma> over the core at the target leg."""
        zero = self.omega.zero(Phi.p, Phi.q)
        return SideElement(Phi.p, map_matrix(lambda k: _pair(Phi.x, self.omega.product(self.core_element(Phi.p, k), zero).x), self.bundle.tangent_dim, Phi.p))

    def dual_source(self, Phi: VBElement) -> SideElement:
        """<alpha~*(Phi), k> = <Phi, -0_gamma k^{-1}> over the core at the source leg."""
        zero = self.omega.zero(Phi.p, Phi.q)

        def value(k: Array) -> Array:
            prod = self.omega.product(zero, self.omega.inverse(self.core_element(Phi.q, k)))
            return _pair(Phi.x, self.omega.neg(prod).x)

        return SideElement(Phi.q, map_matrix(value, self.bundle.tangent_dim, Phi.q))

    def compose(self, Psi: VBElement, Phi: VBElement, middles: Array) -> tuple[VBElement, Array]:
        """Composition by factorization: <Psi Phi, eta xi> = <Psi, eta> + <Phi, xi>.

        Every element of Omega over the composed arrow factors as eta xi with an
        arbitrary middle tangent vector; the result must not depend on it.
        ``middles`` is a stack (m, *arrows, dim) of middle tangent vectors.
        Returns the composed element and, per arrow, the worst deviation across
        the middle choices (factorization independence).
        """
        mismatch = np.ravel(self.omega.side_distance(self.dual_source(Psi), self.dual_target(Phi)))
        row = int(np.argmax(mismatch))
        if mismatch[row] > COMPOSE_TOL:
            raise ValueError(f"dual composition undefined: alpha~*(Psi) != beta~*(Phi) (row {row}: residual {mismatch[row]:.2e})")
        dim = self.bundle.tangent_dim

        def value(zeta_v: Array, zeta_w: Array, mid: Array) -> Array:
            # <Psi, eta> + <Phi, xi> leg by leg, eta = (zeta_v, mid) over (z, x) and xi = (mid, zeta_w) over (x, y)
            psi_eta = row_dot(Psi.x[..., :dim], zeta_v) + row_dot(Psi.x[..., dim:], mid)
            return psi_eta + (row_dot(Phi.x[..., :dim], mid) + row_dot(Phi.x[..., dim:], zeta_w))

        # slot i < dim is (e_i, 0), slot dim + i is (0, e_i)
        vals = map_matrix(lambda slot: value(slot[..., :dim], slot[..., dim:], np.zeros(dim)), 2 * dim, Phi.p)
        e0, zero = np.eye(dim)[0], np.zeros(dim)
        spread = np.max(np.abs(value(e0, zero, np.asarray(middles)) - value(e0, zero, zero)), axis=0)
        return VBElement(Psi.p, Phi.q, vals), spread

    def _from_core_split(self, side: SideElement, value: Callable[[Array, Array], Array]) -> VBElement:
        """A covector over the identity arrow at side.point, from its value on each basis
        vector xi = 1_b + k split by b = source(xi); ``value`` gets b and beta~(k)."""

        def on_basis(x: Array) -> Array:
            xi = VBElement(side.point, side.point, x)
            b = self.omega.source(xi)
            k = self.omega.add(xi, self.omega.neg(self.omega.identity(b)))
            return value(b.x, self.omega.target(k).x)

        return VBElement(side.point, side.point, map_matrix(on_basis, 2 * self.bundle.tangent_dim, side.point))

    def dual_identity(self, chi: SideElement) -> VBElement:
        """<1_chi, 1_b + k> = <chi, k>: reconstruct the identity covector at chi."""
        return self._from_core_split(chi, lambda b, k: row_dot(chi.x, k))

    def side_dual_embedding(self, omega_cov: SideElement) -> VBElement:
        """Identify omega in B*_p with omega-bar: <omega-bar, 1_b + k> = <omega, b + beta~(k)>."""
        return self._from_core_split(omega_cov, lambda b, k: row_dot(omega_cov.x, b + k))


def dual_structure_suite(bundle: BundleSpec, seed: int = 0) -> SuiteReport:
    """Dual structure maps agree with the closed-form cotangent pair groupoid, on the fibre basis."""
    rep = SuiteReport(f"groupoid.dual_structure[{bundle.name}]")
    rng = stream(seed, f"groupoid.dual_structure/{bundle.name}")
    dual = DualOfPairTangent(bundle)
    cot = space_ops(bundle, "T*PxT*P")
    t = bundle.tangent_dim
    # an arrow chain p, q, r, then Phi, lam, chi and the side covector omega
    (P, Q, R), (x_phi, lam, x_chi, x_omega) = _basis_draw(bundle, rng, 3, (2 * t, t, t, t))
    w = {}  # name: (residuals, tolerance)
    Phi = VBElement(P, Q, x_phi)
    w["target_matches"] = cot.side_distance(dual.dual_target(Phi), cot.target(Phi)), 1e-10
    w["source_matches"] = cot.side_distance(dual.dual_source(Phi), cot.source(Phi)), 1e-10

    # composable pair: Psi = (lam, -phi) over (r, p) with alpha~*(Psi) = beta~*(Phi);
    # factorization independence is bilinear, so every basis middle goes against every row
    Psi = VBElement(R, P, np.concatenate([lam, -x_phi[:, :t]], axis=-1))
    composed, spread = dual.compose(Psi, Phi, middles=np.eye(t)[:, None])
    w["factorization_independence"] = spread, 1e-11
    w["compose_matches"] = cot.distance(composed, cot.product(Psi, Phi)), 1e-10

    chi = SideElement(P, x_chi)
    w["identity_matches"] = cot.distance(dual.dual_identity(chi), cot.identity(chi)), 1e-10

    expected = VBElement(P, P, np.concatenate([x_omega, np.zeros_like(x_omega)], axis=-1))
    w["side_dual_embedding"] = cot.distance(dual.side_dual_embedding(SideElement(P, x_omega)), expected), 1e-10

    zero = cot.zero(P, Q)
    w["zero_covector_sides"] = row_norm(dual.dual_target(zero).x) + row_norm(dual.dual_source(zero).x), 1e-10
    for name, (resid, tol) in sorted(w.items()):
        rep.add(name, worst(resid), tol)
    rep.extras["basis_rows"] = 5 * t
    rep.extras["middle_basis"] = t
    return rep


# ---------------------------------------------------------------------------
# cores
# ---------------------------------------------------------------------------


def core_compute(bundle: BundleSpec, point: Point) -> dict[str, tuple[Array, float]]:
    """Core fiber of each space at each point of a stack: the kernel of its source map over the identity arrow (p, p).

    Returns {space: (dimension per point, rank gap over the stack)}.
    ``T(PxP)`` and ``PxgxP`` read ``space_ops(...).src``; the core of
    (TPxTP)/g is the image under A2 of the core of T(PxP), and the core of
    T*((PxP)/G) the kernel of the T*PxT*P source on the image of A2*.
    """
    lead = _lead(point)
    tan, alg, cot = (space_ops(bundle, tag).src for tag in ("T(PxP)", "PxgxP", "T*PxT*P"))
    a2 = _a2_matrix(bundle, point, point)
    tan_r, alg_r, gauge_r = rank_gap(tan, RANK_CUT), rank_gap(alg, RANK_CUT), rank_gap(cot @ a2.swapaxes(-1, -2), RANK_CUT)
    quot_r = rank_gap(a2 @ np.ldexp(tan_r.vt[tan_r.rank :], tan_r.col).T, RANK_CUT)  # A2 on the core of T(PxP), as columns
    return {
        "T(PxP)": (np.broadcast_to(tan.shape[1] - tan_r.rank, lead), tan_r.gap),
        "PxgxP": (np.broadcast_to(alg.shape[1] - alg_r.rank, lead), alg_r.gap),
        "quot(TPxTP)": (quot_r.rank, quot_r.gap),
        "T*gauge": (a2.shape[-2] - gauge_r.rank, gauge_r.gap),
    }


def core_suite(bundle: BundleSpec, fibers: int = 50, seed: int = 0) -> SuiteReport:
    """Core dimensions across sampled fibers: (dim P, 0, dim P) plus the gauge core."""
    rep = SuiteReport(f"groupoid.cores[{bundle.name}]")
    rng = stream(seed, f"groupoid.cores/{bundle.name}")
    d, n = bundle.d, bundle.n
    expected = {"T(PxP)": d + n, "PxgxP": 0, "quot(TPxTP)": d + n, "T*gauge": d}
    P = bundle.random_points(rng, (fibers,))
    cores = core_compute(bundle, P)
    found = {}
    for space, want in expected.items():
        found[space] = sorted(set(cores[space][0].tolist()))
        rep.flag(f"core_dim[{space}]", found[space] == [want], expected=want, got=found[space])
    # every singular value at least 100 times the cut away from it, on either side
    rep.flag("rank_ambiguity", min(gap for _, gap in cores.values()) > 100)
    rep.extras["fibers"] = fibers
    rep.extras["rank_table"] = found
    return rep


# ---------------------------------------------------------------------------
# the groupoid P x g* x P and the momentum morphism I_2*
# ---------------------------------------------------------------------------


def i2_star(bundle: BundleSpec, el: VBElement) -> VBElement:
    """I_2*(phi, psi) = (p, J(phi) + J(psi), q)."""
    return VBElement(el.p, el.q, j2(bundle, el))


def momentum_morphism_suite(bundle: BundleSpec, seed: int = 0) -> SuiteReport:
    """I_2* is a groupoid morphism; J_2 = 0 cuts out the annihilator subgroupoid; on the fibre basis."""
    rep = SuiteReport(f"groupoid.momentum_morphism[{bundle.name}]")
    rng = stream(seed, f"groupoid.momentum_morphism/{bundle.name}")
    cot = space_ops(bundle, "T*PxT*P")
    coal = space_ops(bundle, "Pxg*xP")
    t = bundle.tangent_dim
    rows = 5 * t + bundle.n
    # an arrow chain p, q, r; a and b, the side covector phi and the coalgebra triple
    (P, Q, R), (x_a, x_b, x_phi, x_trip) = _basis_draw(bundle, rng, 3, (2 * t, 2 * t, t, bundle.n))
    w = {}
    a = VBElement(P, Q, x_a)
    b = _with_target(cot, VBElement(Q, R, x_b), cot.source(a))
    w["i2_star_morphism"] = coal.distance(i2_star(bundle, cot.product(a, b)), coal.product(i2_star(bundle, a), i2_star(bundle, b)))

    eps = i2_star(bundle, cot.identity(SideElement(P, x_phi)))
    w["i2_star_identity_section"] = coal.distance(eps, coal.identity(SideElement(P, np.zeros((rows, 0)))))

    # I2* commutes with inversion, and (p, Xs, q)(q, -Xs, p) = eps(p)
    trip = VBElement(P, Q, x_trip)
    w["i2_star_inverse_identity"] = worst(
        coal.distance(i2_star(bundle, cot.inverse(a)), coal.inverse(i2_star(bundle, a))),
        coal.distance(coal.product(trip, coal.inverse(trip)), coal.identity(coal.target(trip))),
    )

    # J_2 = 0 iff the pair annihilates the diagonal vertical subspace; the pairing is bilinear,
    # so every algebra basis vector goes against every row
    el0 = VBElement(P, Q, np.concatenate([x_a[:, : t + bundle.d], -bundle.momentum(_covectors(bundle, a)[0])], axis=-1))
    vert = bundle.vertical_lift(np.eye(bundle.n))[:, None]
    w["tv0_annihilator_equivalence"] = worst(tv0_membership_residual(bundle, el0), np.abs(_pair(el0.x, np.concatenate([vert, vert], axis=-1))))
    for name, resid in sorted(w.items()):
        rep.add(name, worst(resid), AXIOM_TOL)
    rep.extras["basis_rows"] = rows
    return rep


# ---------------------------------------------------------------------------
# short exact sequences, fiberwise
# ---------------------------------------------------------------------------


def _i2_matrix(bundle: BundleSpec, p: Point) -> Array:
    """I2: X -> (vert_p X, vert_q X), at each arrow of a stack."""
    return map_matrix(lambda x: np.concatenate([bundle.vertical_lift(x)] * 2, axis=-1), bundle.n, p)


def _a2_matrix(bundle: BundleSpec, p: Point, q: Point) -> Array:
    """A2: TP x TP -> (TP x TP)/g at each arrow (p, q) of a stack: ``quot_rep`` in class coordinates.

    The representative's first leg is horizontal, so the class coordinates are
    its base part and the whole second leg.
    """
    t = bundle.tangent_dim
    keep = np.r_[: bundle.d, t : 2 * t]
    return map_matrix(lambda x: quot_rep(bundle, VBElement(p, q, x)).x[..., keep], 2 * t, p)


def _seq_matrices(bundle: BundleSpec, sequence_id: str, p: Point, q: Point) -> tuple[Array, Array]:
    """First and second maps of a short exact sequence at each arrow (p, q) of a stack, read off the maps."""
    if sequence_id == "duzyVtrojka":
        # P x g x P --I2--> TP x TP --A2--> (TP x TP)/g
        return _i2_matrix(bundle, p), _a2_matrix(bundle, p, q)
    if sequence_id == "duzyVdual":
        # TV0(PxP) --A2*--> T*P x T*P --I2*--> P x g* x P, with A2* = A2^T and I2* = J2
        return _a2_matrix(bundle, p, q).swapaxes(-1, -2), map_matrix(lambda x: j2(bundle, VBElement(p, q, x)), 2 * bundle.tangent_dim, p)
    raise KeyError(f"unknown sequence {sequence_id!r}")


def ses_fiber_check(bundle: BundleSpec, sequence_id: str, samples: int = 50, seed: int = 0) -> SuiteReport:
    """Injectivity / surjectivity / im = ker at sampled arrows, by ``linalg.exactness``."""
    rep = SuiteReport(f"groupoid.ses[{sequence_id}]")
    rng = stream(seed, f"groupoid.ses/{sequence_id}/{bundle.name}")
    P, Q = _unstack(bundle.random_points(rng, (2, samples)))
    f, h = _seq_matrices(bundle, sequence_id, P, Q)
    injective, surjective, composite, image_kernel, ranks = exactness(f, h)
    rep.flag("first_map_injective", injective)
    rep.flag("second_map_surjective", surjective)
    rep.add("composite_zero", composite, 1e-10)
    rep.add("image_equals_kernel", image_kernel, 1e-10)
    if sequence_id == "duzyVdual":
        # <I2*(Phi), X> = <Phi, I2(X)> on the bases: J2 against the vertical lift on both legs
        rep.add("i2_star_duality", worst(np.abs(h - _i2_matrix(bundle, P).swapaxes(-1, -2))), 1e-10)
    rep.extras["trials"] = samples
    rep.extras["sequence_id"] = sequence_id
    rep.extras["rank_table"] = ranks
    return rep


def _cot_transport(bundle: BundleSpec, g: Array) -> Array:
    """Matrix of T*kappa_g on covector coordinates, diag(I, Ad*_g), as ``bundle.cot_act`` applies it, per element of a stack."""
    ad = bundle.group.Ad_star(g)
    out = np.zeros(ad.shape[:-2] + (bundle.tangent_dim, bundle.tangent_dim))
    out[..., : bundle.d, : bundle.d] = np.eye(bundle.d)
    out[..., bundle.d :, bundle.d :] = ad
    return out


def quotient_dual_suite(bundle: BundleSpec, samples: int = 50, seed: int = 0) -> SuiteReport:
    """Contragredient pairing identity and Omega*/G ~ (Omega/G)* fiber isomorphism, as ``ses[quotiented]``: the quotiented
    duals' sequence is ``duzyVdual``'s at gauge-moved arrows, so only the transports against the pairing are new."""
    rep = SuiteReport("groupoid.ses[quotiented]")
    rng = stream(seed, f"groupoid.quotient_dual/{bundle.name}")
    t = bundle.tangent_dim
    # g, then Phi and xi over an arrow (p, q) and xi' over the arrow (p g, q g): the
    # transports do not read the arrow, so it is not drawn
    g = bundle.group.exp(bundle.group.random_algebra(rng, lead=(samples,)))
    phi, xi, xi2 = rng.standard_normal((3, samples, 2 * t))
    g_both = np.stack([g, bundle.group.inverse(g)])
    # the tangent and cotangent transports of g and g^-1, one matrix per sample, on both legs
    tan_g, tan_back = np.kron(np.eye(2), bundle.tk_g(g_both))
    cot_g, cot_back = np.kron(np.eye(2), _cot_transport(bundle, g_both))

    # <Phi g, xi g> = <Phi, xi>: the contragredient action makes the pairing invariant
    phi_g = row_matvec(cot_g, phi)
    w_pair = worst(np.abs(_pair(phi_g, row_matvec(tan_g, xi)) - _pair(phi, xi)))
    # <Phi g, xi'> = <Phi, xi' g^{-1}> for xi' over the shifted arrow
    w_pair = worst(w_pair, np.abs(_pair(phi_g, xi2) - _pair(phi, row_matvec(tan_back, xi2))))

    # induced fiberwise map Omega*/G -> (Omega/G)*: classes given by basis
    # representatives at a translated arrow, paired after aligning both to
    # the gauge arrow by g^{-1}.  In the gauge-fixed dual bases the matrix
    # is the identity iff the implemented cotangent transport really is
    # the contragredient of the tangent one.
    mat = cot_back.swapaxes(-1, -2) @ tan_back
    rep.add("contragredient_pairing", w_pair, 1e-12)
    rep.add("quotient_dual_iso_residual", worst(np.abs(mat - np.eye(2 * t))), 1e-10)
    rep.extras["iso_condition_number"] = float(np.max(np.linalg.cond(mat), initial=1.0))
    rep.extras["trials"] = samples
    return rep
