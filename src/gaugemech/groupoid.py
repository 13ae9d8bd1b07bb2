"""Concrete VB-groupoids over the pair groupoid P x P => P and their duals.

Four spaces are instantiated over a trivialized bundle P:

    T(PxP)    tangent pair groupoid, elements (v_p, w_q), side bundle TP
    PxgxP     triples (p, X, q) with X in the structure algebra, side P x g
    T*PxT*P   cotangent pair groupoid with the twisted structure
                  s(phi,psi) = -psi, t = phi, eps(phi) = (phi,-phi),
                  i(phi,psi) = (-psi,-phi), (phi,psi)(-psi,lam) = (phi,lam)
    Pxg*xP    triples (p, Xs, q) with product (p,Xs,q)(q,Ys,r) = (p,Xs+Ys,r)

plus the annihilator subspace TV0(PxP) inside T*PxT*P and the quotient
(TPxTP)/g with gauge-fixed representatives resolved through the connection.

The Pradines dual of T(PxP) is computed from the defining pairings (duality
of source/target against core products, composition by factorization,
identity by core decomposition) and cross-validated against the closed-form
cotangent structure, which is the independent ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bundle import BundleSpec, CotangentSample, Point
from .report import SuiteReport
from .rng import stream

Array = np.ndarray

AXIOM_TOL = 1e-11
COMPOSE_TOL = 1e-10
RANK_CUT = 1e-8


@dataclass(frozen=True)
class TangentVec:
    """Tangent sample of P: base point plus (dbase, xi) coordinates."""

    point: Point
    coords: Array


@dataclass(frozen=True)
class VBElement:
    """An arrow of one of the concrete VB-groupoid fibers."""

    space: str
    data: tuple


@dataclass(frozen=True)
class CoreElement:
    """A core fiber element: projects to an identity arrow and a zero side element."""

    space: str
    data: tuple


# ---------------------------------------------------------------------------
# space engines
# ---------------------------------------------------------------------------


class SpaceOps:
    """Groupoid + vector bundle operations for one concrete space."""

    tag = ""

    def __init__(self, bundle: BundleSpec):
        self.bundle = bundle

    # vector bundle fiber dimension over an arrow
    def fiber_dim(self) -> int:
        raise NotImplementedError

    def arrow(self, el: VBElement) -> tuple[Point, Point]:
        raise NotImplementedError

    def coords(self, el: VBElement) -> Array:
        raise NotImplementedError

    def source(self, el: VBElement):
        raise NotImplementedError

    def target(self, el: VBElement):
        raise NotImplementedError

    def identity(self, side) -> VBElement:
        raise NotImplementedError

    def inverse(self, el: VBElement) -> VBElement:
        raise NotImplementedError

    def _product(self, a: VBElement, b: VBElement) -> VBElement:
        raise NotImplementedError

    def composability_residual(self, a: VBElement, b: VBElement) -> float:
        sa, tb = self.source(a), self.target(b)
        return self.side_distance(sa, tb)

    def snap(self, a: VBElement, b: VBElement) -> VBElement:
        """Replace b's target side by source(a) (projection onto composability)."""
        raise NotImplementedError

    def product(self, a: VBElement, b: VBElement, snap_tol: float = COMPOSE_TOL) -> VBElement:
        resid = self.composability_residual(a, b)
        if resid > snap_tol:
            raise ValueError(f"non-composable elements in {self.tag} (residual {resid:.2e})")
        return self._product(a, self.snap(a, b))

    def add(self, a: VBElement, b: VBElement) -> VBElement:
        raise NotImplementedError

    def scale(self, t: float, a: VBElement) -> VBElement:
        raise NotImplementedError

    def neg(self, a: VBElement) -> VBElement:
        return self.scale(-1.0, a)

    def zero(self, p: Point, q: Point) -> VBElement:
        raise NotImplementedError

    def random(self, rng: np.random.Generator, p: Point, q: Point) -> VBElement:
        raise NotImplementedError

    def side_distance(self, s1, s2) -> float:
        raise NotImplementedError

    def side_add(self, s1, s2):
        raise NotImplementedError

    def distance(self, a: VBElement, b: VBElement) -> float:
        pa, qa = self.arrow(a)
        pb, qb = self.arrow(b)
        darr = self.bundle.point_distance(pa, pb) + self.bundle.point_distance(qa, qb)
        return darr + float(np.linalg.norm(self.coords(a) - self.coords(b)))


class PairTangentOps(SpaceOps):
    """T(PxP) identified with TP x TP => TP (pair groupoid of TP)."""

    tag = "T(PxP)"

    def fiber_dim(self) -> int:
        return 2 * self.bundle.tangent_dim

    def arrow(self, el):
        v, w = el.data
        return v.point, w.point

    def coords(self, el):
        v, w = el.data
        return np.concatenate([v.coords, w.coords])

    def source(self, el):
        return el.data[1]

    def target(self, el):
        return el.data[0]

    def identity(self, side: TangentVec):
        return VBElement(self.tag, (side, side))

    def inverse(self, el):
        v, w = el.data
        return VBElement(self.tag, (w, v))

    def snap(self, a, b):
        sa = self.source(a)
        _, z = b.data
        return VBElement(self.tag, (sa, z))

    def _product(self, a, b):
        return VBElement(self.tag, (a.data[0], b.data[1]))

    def add(self, a, b):
        (v1, w1), (v2, w2) = a.data, b.data
        return VBElement(self.tag, (TangentVec(v1.point, v1.coords + v2.coords), TangentVec(w1.point, w1.coords + w2.coords)))

    def scale(self, t, a):
        v, w = a.data
        return VBElement(self.tag, (TangentVec(v.point, t * v.coords), TangentVec(w.point, t * w.coords)))

    def zero(self, p, q):
        z = np.zeros(self.bundle.tangent_dim)
        return VBElement(self.tag, (TangentVec(p, z.copy()), TangentVec(q, z.copy())))

    def random(self, rng, p, q):
        dim = self.bundle.tangent_dim
        return VBElement(self.tag, (TangentVec(p, rng.standard_normal(dim)), TangentVec(q, rng.standard_normal(dim))))

    def side_distance(self, s1: TangentVec, s2: TangentVec) -> float:
        return self.bundle.point_distance(s1.point, s2.point) + float(np.linalg.norm(s1.coords - s2.coords))

    def side_add(self, s1: TangentVec, s2: TangentVec) -> TangentVec:
        return TangentVec(s1.point, s1.coords + s2.coords)


class AlgebraTripleOps(SpaceOps):
    """P x g x P with product (p, X, q)(q, X, r) = (p, X, r); side bundle P x g."""

    tag = "PxgxP"

    def fiber_dim(self) -> int:
        return self.bundle.n

    def arrow(self, el):
        p, _, q = el.data
        return p, q

    def coords(self, el):
        return np.asarray(el.data[1], dtype=float)

    def source(self, el):
        p, x, q = el.data
        return (q, x)

    def target(self, el):
        p, x, q = el.data
        return (p, x)

    def identity(self, side):
        p, x = side
        return VBElement(self.tag, (p, np.asarray(x, dtype=float).copy(), p))

    def inverse(self, el):
        p, x, q = el.data
        return VBElement(self.tag, (q, x.copy(), p))

    def snap(self, a, b):
        _, xa, qa = a.data
        _, _, r = b.data
        return VBElement(self.tag, (qa, xa.copy(), r))

    def _product(self, a, b):
        p, x, _ = a.data
        _, _, r = b.data
        return VBElement(self.tag, (p, x.copy(), r))

    def add(self, a, b):
        p, x, q = a.data
        return VBElement(self.tag, (p, x + b.data[1], q))

    def scale(self, t, a):
        p, x, q = a.data
        return VBElement(self.tag, (p, t * x, q))

    def zero(self, p, q):
        return VBElement(self.tag, (p, np.zeros(self.bundle.n), q))

    def random(self, rng, p, q):
        return VBElement(self.tag, (p, rng.standard_normal(self.bundle.n), q))

    def side_distance(self, s1, s2) -> float:
        return self.bundle.point_distance(s1[0], s2[0]) + float(np.linalg.norm(s1[1] - s2[1]))

    def side_add(self, s1, s2):
        return (s1[0], s1[1] + s2[1])


class CotangentPairOps(SpaceOps):
    """T*P x T*P => T*P with the twisted structure matching the dual of T(PxP)."""

    tag = "T*PxT*P"

    def fiber_dim(self) -> int:
        return 2 * self.bundle.tangent_dim

    def arrow(self, el):
        phi, psi = el.data
        return phi.point, psi.point

    def coords(self, el):
        phi, psi = el.data
        return np.concatenate([phi.coords, psi.coords])

    def source(self, el):
        phi, psi = el.data
        return CotangentSample(psi.point, -psi.a, -psi.b)

    def target(self, el):
        return el.data[0]

    def identity(self, side: CotangentSample):
        return VBElement(self.tag, (side, CotangentSample(side.point, -side.a, -side.b)))

    def inverse(self, el):
        phi, psi = el.data
        return VBElement(self.tag, (CotangentSample(psi.point, -psi.a, -psi.b), CotangentSample(phi.point, -phi.a, -phi.b)))

    def snap(self, a, b):
        sa = self.source(a)
        _, lam = b.data
        return VBElement(self.tag, (sa, lam))

    def _product(self, a, b):
        return VBElement(self.tag, (a.data[0], b.data[1]))

    def add(self, a, b):
        (f1, s1), (f2, s2) = a.data, b.data
        return VBElement(self.tag, (CotangentSample(f1.point, f1.a + f2.a, f1.b + f2.b), CotangentSample(s1.point, s1.a + s2.a, s1.b + s2.b)))

    def scale(self, t, a):
        f, s = a.data
        return VBElement(self.tag, (CotangentSample(f.point, t * f.a, t * f.b), CotangentSample(s.point, t * s.a, t * s.b)))

    def zero(self, p, q):
        d, n = self.bundle.d, self.bundle.n
        return VBElement(self.tag, (CotangentSample(p, np.zeros(d), np.zeros(n)), CotangentSample(q, np.zeros(d), np.zeros(n))))

    def random(self, rng, p, q):
        return VBElement(self.tag, (self.bundle.random_cotangent(rng, point=p), self.bundle.random_cotangent(rng, point=q)))

    def side_distance(self, s1: CotangentSample, s2: CotangentSample) -> float:
        return self.bundle.point_distance(s1.point, s2.point) + float(np.linalg.norm(s1.coords - s2.coords))

    def side_add(self, s1, s2):
        return CotangentSample(s1.point, s1.a + s2.a, s1.b + s2.b)

    def delta_involution(self, el: VBElement) -> VBElement:
        """delta(phi, psi) = (phi, -psi): intertwines (s) with the plain pair groupoid."""
        phi, psi = el.data
        return VBElement(self.tag, (phi, CotangentSample(psi.point, -psi.a, -psi.b)))


class CoalgebraTripleOps(SpaceOps):
    """P x g* x P with product (p, Xs, q)(q, Ys, r) = (p, Xs + Ys, r); side P."""

    tag = "Pxg*xP"

    def fiber_dim(self) -> int:
        return self.bundle.n

    def arrow(self, el):
        p, _, q = el.data
        return p, q

    def coords(self, el):
        return np.asarray(el.data[1], dtype=float)

    def source(self, el):
        return el.data[2]

    def target(self, el):
        return el.data[0]

    def identity(self, side: Point):
        return VBElement(self.tag, (side, np.zeros(self.bundle.n), side))

    def inverse(self, el):
        p, xs, q = el.data
        return VBElement(self.tag, (q, -xs, p))

    def snap(self, a, b):
        _, _, qa = a.data
        _, ys, r = b.data
        return VBElement(self.tag, (qa, ys, r))

    def _product(self, a, b):
        p, xs, _ = a.data
        _, ys, r = b.data
        return VBElement(self.tag, (p, xs + ys, r))

    def add(self, a, b):
        p, xs, q = a.data
        return VBElement(self.tag, (p, xs + b.data[1], q))

    def scale(self, t, a):
        p, xs, q = a.data
        return VBElement(self.tag, (p, t * xs, q))

    def zero(self, p, q):
        return VBElement(self.tag, (p, np.zeros(self.bundle.n), q))

    def random(self, rng, p, q):
        return VBElement(self.tag, (p, rng.standard_normal(self.bundle.n), q))

    def side_distance(self, s1: Point, s2: Point) -> float:
        return self.bundle.point_distance(s1, s2)

    def side_add(self, s1, s2):
        return s1  # the side bundle is the zero bundle over P


SPACE_TAGS = ("T(PxP)", "PxgxP", "T*PxT*P", "Pxg*xP")


def space_ops(bundle: BundleSpec, tag: str) -> SpaceOps:
    for cls in (PairTangentOps, AlgebraTripleOps, CotangentPairOps, CoalgebraTripleOps):
        if cls.tag == tag:
            return cls(bundle)
    raise KeyError(f"unknown VB-groupoid space {tag!r}")


# ---------------------------------------------------------------------------
# membership helpers for constrained spaces
# ---------------------------------------------------------------------------


def j2(bundle: BundleSpec, el: VBElement) -> Array:
    """J_2(phi, psi) = phi o Tkappa_p(e) + psi o Tkappa_q(e)."""
    phi, psi = el.data
    return bundle.momentum(phi) + bundle.momentum(psi)


def tv0_membership_residual(bundle: BundleSpec, el: VBElement) -> float:
    """Membership defect of T^{V0}(PxP): the annihilator condition J_2 = 0."""
    return float(np.linalg.norm(j2(bundle, el)))


def quot_rep(bundle: BundleSpec, el: VBElement) -> VBElement:
    """Gauge-fixed representative of a class in (TP x TP)/g.

    The algebra acts by X: (v, w) -> (v + vert_p X, w + vert_q X); the
    representative subtracts X = alpha_p(v) so the first leg is horizontal.
    """
    v, w = el.data
    x = bundle.alpha(v.point, v.coords)
    vv = v.coords - bundle.vertical_lift(x)
    ww = w.coords - bundle.vertical_lift(x)
    return VBElement("quot(TPxTP)", (TangentVec(v.point, vv), TangentVec(w.point, ww)))


# ---------------------------------------------------------------------------
# VB-groupoid axiom suite
# ---------------------------------------------------------------------------


def _sample_arrow_chain(bundle: BundleSpec, rng: np.random.Generator) -> tuple[Point, Point, Point]:
    return bundle.random_point(rng), bundle.random_point(rng), bundle.random_point(rng)


def vb_axiom_suite(bundle: BundleSpec, space: str, samples: int = 60, seed: int = 0, tol: float = AXIOM_TOL) -> SuiteReport:
    """Interchange law and side identities on random composable/addable data."""
    ops = space_ops(bundle, space)
    rep = SuiteReport(f"groupoid.vb_axioms[{space}]")
    rng = stream(seed, f"groupoid.vb_axioms/{space}/{bundle.name}")
    worst = {k: 0.0 for k in ("interchange", "identity_additive", "inverse_additive", "zero_multiplicative", "zero_inverse", "neg_product")}
    for _ in range(samples):
        p, q, r = _sample_arrow_chain(bundle, rng)

        eta1 = ops.random(rng, q, r)
        eta2 = ops.random(rng, q, r)
        # build xi_i over (p, q) with source snapped to target(eta_i)
        xi1 = _with_source(ops, ops.random(rng, p, q), ops.target(eta1))
        xi2 = _with_source(ops, ops.random(rng, p, q), ops.target(eta2))

        lhs = ops.product(ops.add(xi1, xi2), ops.add(eta1, eta2))
        rhs = ops.add(ops.product(xi1, eta1), ops.product(xi2, eta2))
        worst["interchange"] = max(worst["interchange"], ops.distance(lhs, rhs))

        # identity section is additive over a common side fiber
        b1, b2 = ops.source(ops.random(rng, p, q)), ops.source(ops.random(rng, p, q))
        lhs = ops.identity(ops.side_add(b1, b2))
        rhs = ops.add(ops.identity(b1), ops.identity(b2))
        worst["identity_additive"] = max(worst["identity_additive"], ops.distance(lhs, rhs))

        # inversion is additive over a common arrow
        a1, a2 = ops.random(rng, p, q), ops.random(rng, p, q)
        lhs = ops.inverse(ops.add(a1, a2))
        rhs = ops.add(ops.inverse(a1), ops.inverse(a2))
        worst["inverse_additive"] = max(worst["inverse_additive"], ops.distance(lhs, rhs))

        # zero section is multiplicative, and compatible with inversion
        lhs = ops.zero(p, r)
        rhs = ops.product(ops.zero(p, q), ops.zero(q, r))
        worst["zero_multiplicative"] = max(worst["zero_multiplicative"], ops.distance(lhs, rhs))
        worst["zero_inverse"] = max(worst["zero_inverse"], ops.distance(ops.zero(q, p), ops.inverse(ops.zero(p, q))))

        # (-eta)(-xi) = -(eta xi)
        eta = _with_source(ops, ops.random(rng, p, q), ops.target(eta1))
        lhs = ops.product(ops.neg(eta), ops.neg(eta1))
        rhs = ops.neg(ops.product(eta, eta1))
        worst["neg_product"] = max(worst["neg_product"], ops.distance(lhs, rhs))

    for name, resid in sorted(worst.items()):
        rep.add(name, resid, tol)
    rep.extras["trials"] = samples
    rep.extras["space"] = space
    return rep


def groupoid_law_suite(bundle: BundleSpec, space: str, samples: int = 40, seed: int = 0, tol: float = AXIOM_TOL) -> SuiteReport:
    """Pure groupoid laws: s/t of identities, associativity, involution, inverse law."""
    ops = space_ops(bundle, space)
    rep = SuiteReport(f"groupoid.laws[{space}]")
    rng = stream(seed, f"groupoid.laws/{space}/{bundle.name}")
    worst = {k: 0.0 for k in ("identity_source_target", "associativity", "involution", "inverse_product")}
    for _ in range(samples):
        p, q, r = _sample_arrow_chain(bundle, rng)
        s = bundle.random_point(rng)
        el = ops.random(rng, p, q)

        side = ops.source(el)
        ident = ops.identity(side)
        resid = ops.side_distance(ops.source(ident), side) + ops.side_distance(ops.target(ident), side)
        worst["identity_source_target"] = max(worst["identity_source_target"], resid)

        a = ops.random(rng, p, q)
        b = _with_target(ops, ops.random(rng, q, r), ops.source(a))
        c = _with_target(ops, ops.random(rng, r, s), ops.source(b))
        lhs = ops.product(ops.product(a, b), c)
        rhs = ops.product(a, ops.product(b, c))
        worst["associativity"] = max(worst["associativity"], ops.distance(lhs, rhs))

        worst["involution"] = max(worst["involution"], ops.distance(ops.inverse(ops.inverse(el)), el))

        prod = ops.product(el, ops.inverse(el))
        worst["inverse_product"] = max(worst["inverse_product"], ops.distance(prod, ops.identity(ops.target(el))))
    for name, resid in sorted(worst.items()):
        rep.add(name, resid, tol)
    rep.extras["trials"] = samples
    return rep


def _with_source(ops: SpaceOps, el: VBElement, side) -> VBElement:
    """Rebuild el so that source(el) equals the given side element."""
    # snap(a, b) replaces target(b) by source(a); apply to the inverse and flip back
    anchor = ops.identity(side)
    return ops.inverse(ops.snap(anchor, ops.inverse(el)))


def _with_target(ops: SpaceOps, el: VBElement, side) -> VBElement:
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
    be cross-checked against the closed-form structure of T*PxT*P.
    """

    def __init__(self, bundle: BundleSpec):
        self.bundle = bundle
        self.omega = PairTangentOps(bundle)

    def pair(self, Phi: VBElement, xi: VBElement) -> float:
        phi, psi = Phi.data
        v, w = xi.data
        return float(phi.coords @ v.coords + psi.coords @ w.coords)

    def core_element(self, x: Point, v: Array) -> VBElement:
        """Core of Omega at x: (v_x, 0_x) over the identity arrow (x, x)."""
        zero = TangentVec(x, np.zeros(self.bundle.tangent_dim))
        return VBElement("T(PxP)", (TangentVec(x, np.asarray(v, dtype=float)), zero))

    def dual_target(self, Phi: VBElement) -> CotangentSample:
        """<beta~*(Phi), k> = <Phi, k 0_gamma> over the core at the target leg."""
        x, y = self.omega.arrow(Phi)
        dim = self.bundle.tangent_dim
        zero = self.omega.zero(x, y)
        vals = np.empty(dim)
        for i in range(dim):
            k = self.core_element(x, np.eye(dim)[i])
            vals[i] = self.pair(Phi, self.omega.product(k, zero))
        return CotangentSample(x, vals[: self.bundle.d], vals[self.bundle.d :])

    def dual_source(self, Phi: VBElement) -> CotangentSample:
        """<alpha~*(Phi), k> = <Phi, -0_gamma k^{-1}> over the core at the source leg."""
        x, y = self.omega.arrow(Phi)
        dim = self.bundle.tangent_dim
        zero = self.omega.zero(x, y)
        vals = np.empty(dim)
        for i in range(dim):
            k = self.core_element(y, np.eye(dim)[i])
            prod = self.omega.product(zero, self.omega.inverse(k))
            vals[i] = self.pair(Phi, self.omega.neg(prod))
        return CotangentSample(y, vals[: self.bundle.d], vals[self.bundle.d :])

    def compose(self, Psi: VBElement, Phi: VBElement, middles: Iterable[Array] | None = None, tol: float = COMPOSE_TOL) -> tuple[VBElement, float]:
        """Composition by factorization: <Psi Phi, eta xi> = <Psi, eta> + <Phi, xi>.

        Every element of Omega over the composed arrow factors as eta xi with an
        arbitrary middle tangent vector; the result must not depend on it.
        Returns the composed element and the worst deviation across the supplied
        middle choices (factorization independence).
        """
        src = self.dual_source(Psi)
        tgt = self.dual_target(Phi)
        mismatch = self.bundle.point_distance(src.point, tgt.point) + float(np.linalg.norm(src.coords - tgt.coords))
        if mismatch > tol:
            raise ValueError(f"dual composition undefined: alpha~*(Psi) != beta~*(Phi) (residual {mismatch:.2e})")
        z, x = self.omega.arrow(Psi)
        x2, y = self.omega.arrow(Phi)
        dim = self.bundle.tangent_dim
        eye = np.eye(dim)

        def value(zeta_v: Array, zeta_w: Array, mid: Array) -> float:
            eta = VBElement("T(PxP)", (TangentVec(z, zeta_v), TangentVec(x, mid)))
            xi = VBElement("T(PxP)", (TangentVec(x2, mid), TangentVec(y, zeta_w)))
            return self.pair(Psi, eta) + self.pair(Phi, xi)

        base_mid = np.zeros(dim)
        vals = np.empty(2 * dim)
        for i in range(dim):
            vals[i] = value(eye[i], np.zeros(dim), base_mid)
            vals[dim + i] = value(np.zeros(dim), eye[i], base_mid)
        spread = 0.0
        if middles is not None:
            probe_v, probe_w = eye[0], np.zeros(dim)
            ref = value(probe_v, probe_w, base_mid)
            for mid in middles:
                spread = max(spread, abs(value(probe_v, probe_w, np.asarray(mid)) - ref))
        out = VBElement(
            "T*PxT*P",
            (
                CotangentSample(z, vals[: self.bundle.d], vals[self.bundle.d : dim]),
                CotangentSample(y, vals[dim : dim + self.bundle.d], vals[dim + self.bundle.d :]),
            ),
        )
        return out, spread

    def dual_identity(self, chi: CotangentSample) -> VBElement:
        """<1_chi, 1_b + k> = <chi, k>: reconstruct the identity covector at chi."""
        x = chi.point
        dim = self.bundle.tangent_dim
        eye = np.eye(dim)
        vals = np.empty(2 * dim)
        for slot in range(2 * dim):
            v = eye[slot % dim]
            xi = VBElement(
                "T(PxP)",
                (
                    TangentVec(x, v if slot < dim else np.zeros(dim)),
                    TangentVec(x, np.zeros(dim) if slot < dim else v),
                ),
            )
            b = self.omega.source(xi)
            k = self.omega.add(xi, self.omega.neg(self.omega.identity(b)))
            core_part = k.data[0].coords  # core elements are (v, 0)
            vals[slot] = float(chi.coords @ core_part)
        return VBElement(
            "T*PxT*P",
            (
                CotangentSample(x, vals[: self.bundle.d], vals[self.bundle.d : dim]),
                CotangentSample(x, vals[dim : dim + self.bundle.d], vals[dim + self.bundle.d :]),
            ),
        )

    def side_dual_embedding(self, omega_cov: CotangentSample) -> VBElement:
        """Identify omega in B*_p with omega-bar: <omega-bar, 1_b + k> = <omega, b + beta~(k)>."""
        x = omega_cov.point
        dim = self.bundle.tangent_dim
        eye = np.eye(dim)
        vals = np.empty(2 * dim)
        for slot in range(2 * dim):
            v = eye[slot % dim]
            xi = VBElement(
                "T(PxP)",
                (
                    TangentVec(x, v if slot < dim else np.zeros(dim)),
                    TangentVec(x, np.zeros(dim) if slot < dim else v),
                ),
            )
            b = self.omega.source(xi)
            k = self.omega.add(xi, self.omega.neg(self.omega.identity(b)))
            beta_k = self.omega.target(k)
            vals[slot] = float(omega_cov.coords @ (b.coords + beta_k.coords))
        return VBElement(
            "T*PxT*P",
            (
                CotangentSample(x, vals[: self.bundle.d], vals[self.bundle.d : dim]),
                CotangentSample(x, vals[dim : dim + self.bundle.d], vals[dim + self.bundle.d :]),
            ),
        )


def dual_structure_suite(bundle: BundleSpec, samples: int = 30, seed: int = 0, taus: int = 100, tol: float = 1e-11, match_tol: float = 1e-10) -> SuiteReport:
    """Dual structure maps agree with the closed-form cotangent pair groupoid."""
    rep = SuiteReport(f"groupoid.dual_structure[{bundle.name}]")
    rng = stream(seed, f"groupoid.dual_structure/{bundle.name}")
    dual = DualOfPairTangent(bundle)
    cot = CotangentPairOps(bundle)
    worst = {k: 0.0 for k in ("target_matches", "source_matches", "compose_matches", "factorization_independence", "identity_matches", "side_dual_embedding", "zero_covector_sides")}
    for _ in range(samples):
        p, q, r = _sample_arrow_chain(bundle, rng)
        Phi = cot.random(rng, p, q)

        t_dual = dual.dual_target(Phi)
        t_closed = cot.target(Phi)
        worst["target_matches"] = max(worst["target_matches"], cot.side_distance(t_dual, t_closed))

        s_dual = dual.dual_source(Phi)
        s_closed = cot.source(Phi)
        worst["source_matches"] = max(worst["source_matches"], cot.side_distance(s_dual, s_closed))

        # composable pair: Psi over (r, p) with alpha~*(Psi) = beta~*(Phi)
        lam = bundle.random_cotangent(rng, point=r)
        phi0 = Phi.data[0]
        Psi = VBElement("T*PxT*P", (lam, CotangentSample(phi0.point, -phi0.a, -phi0.b)))
        middles = [rng.standard_normal(bundle.tangent_dim) for _ in range(taus)]
        composed, spread = dual.compose(Psi, Phi, middles=middles)
        worst["factorization_independence"] = max(worst["factorization_independence"], spread)
        closed = cot.product(Psi, Phi)
        worst["compose_matches"] = max(worst["compose_matches"], cot.distance(composed, closed))

        chi = bundle.random_cotangent(rng, point=p)
        ident_dual = dual.dual_identity(chi)
        ident_closed = cot.identity(chi)
        worst["identity_matches"] = max(worst["identity_matches"], cot.distance(ident_dual, ident_closed))

        omega_cov = bundle.random_cotangent(rng, point=p)
        bar = dual.side_dual_embedding(omega_cov)
        expected = VBElement("T*PxT*P", (omega_cov, CotangentSample(omega_cov.point, np.zeros(bundle.d), np.zeros(bundle.n))))
        worst["side_dual_embedding"] = max(worst["side_dual_embedding"], cot.distance(bar, expected))

        zero = cot.zero(p, q)
        worst["zero_covector_sides"] = max(
            worst["zero_covector_sides"],
            float(np.linalg.norm(dual.dual_target(zero).coords)) + float(np.linalg.norm(dual.dual_source(zero).coords)),
        )
    for name, resid in sorted(worst.items()):
        rep.add(name, resid, match_tol if name.endswith("matches") or name in ("side_dual_embedding", "zero_covector_sides") else tol)
    rep.extras["trials"] = samples
    rep.extras["tau_perturbations"] = taus
    return rep


# ---------------------------------------------------------------------------
# cores
# ---------------------------------------------------------------------------


def _nullspace(mat: Array, rank_cut: float = RANK_CUT) -> tuple[Array, bool]:
    """Kernel basis by SVD; flags an ambiguous spectrum near the threshold."""
    u, s, vt = np.linalg.svd(mat)
    smax = s[0] if s.size else 0.0
    cut = rank_cut * max(smax, 1.0)
    rank = int(np.sum(s > cut))
    ambiguous = bool(np.any((s > 0.01 * cut) & (s <= 100 * cut)))
    return vt[rank:].T, ambiguous


def core_compute(bundle: BundleSpec, space: str, point: Point) -> tuple[int, Array, bool]:
    """Core fiber at a point: kernel of the source map over the identity arrow.

    Returns (dimension, basis columns in fiber coordinates, ambiguity flag).
    """
    d, n = bundle.d, bundle.n
    if space == "T(PxP)":
        # fiber coords (v, w); source = w
        s_mat = np.zeros((d + n, 2 * (d + n)))
        s_mat[:, d + n :] = np.eye(d + n)
    elif space == "PxgxP":
        # fiber coords X; the side element over p is (p, X), zero iff X = 0
        s_mat = np.eye(n)
    elif space == "quot(TPxTP)":
        # gauge-fixed class coords (dbase_v, w'): source class is <w'>,
        # zero iff the horizontal (base) part of w' vanishes
        s_mat = np.zeros((d, d + (d + n)))
        s_mat[:, d : 2 * d] = np.eye(d)
    elif space == "T*gauge":
        # fiber of T*((PxP)/G) over the identity gauge arrow: (a_phi, b_phi, a_psi)
        # with b_psi = -b_phi; source (per the descended structure) is
        # <-psi> = (-a_psi, b_phi): kernel = {(a_phi, 0, 0)} = J^{-1}(0)/G fiber
        s_mat = np.zeros((d + n, 2 * d + n))
        s_mat[:d, d + n :] = -np.eye(d)
        s_mat[d:, d : d + n] = np.eye(n)
    else:
        raise KeyError(f"no core computation for space {space!r}")
    basis, ambiguous = _nullspace(s_mat)
    return basis.shape[1], basis, ambiguous


def core_suite(bundle: BundleSpec, fibers: int = 50, seed: int = 0) -> SuiteReport:
    """Core dimensions across sampled fibers: (dim P, 0, dim P) plus the gauge core."""
    rep = SuiteReport(f"groupoid.cores[{bundle.name}]")
    rng = stream(seed, f"groupoid.cores/{bundle.name}")
    d, n = bundle.d, bundle.n
    expected = {"T(PxP)": d + n, "PxgxP": 0, "quot(TPxTP)": d + n, "T*gauge": d}
    dims_seen: dict[str, set[int]] = {k: set() for k in expected}
    ambiguous = False
    for _ in range(fibers):
        p = bundle.random_point(rng)
        for space in expected:
            dim, _, amb = core_compute(bundle, space, p)
            dims_seen[space].add(dim)
            ambiguous = ambiguous or amb
    for space, want in expected.items():
        got = dims_seen[space]
        rep.add(f"core_dim[{space}]", 0.0 if got == {want} else 1.0, 0.5, expected=want, got=sorted(got))
    rep.add("rank_ambiguity", 1.0 if ambiguous else 0.0, 0.5)
    # alternating sum of core dimensions in the tangent-side sequence
    alt = expected["PxgxP"] - expected["T(PxP)"] + expected["quot(TPxTP)"]
    rep.add("core_alternating_sum", float(abs(alt)), 0.5)
    rep.extras["fibers"] = fibers
    rep.extras["rank_table"] = expected
    return rep


# ---------------------------------------------------------------------------
# the groupoid P x g* x P and the momentum morphism I_2*
# ---------------------------------------------------------------------------


def i2_star(bundle: BundleSpec, el: VBElement) -> VBElement:
    """I_2*(phi, psi) = (p, J(phi) + J(psi), q)."""
    phi, psi = el.data
    return VBElement("Pxg*xP", (phi.point, j2(bundle, el), psi.point))


def momentum_morphism_suite(bundle: BundleSpec, samples: int = 60, seed: int = 0, tol: float = AXIOM_TOL) -> SuiteReport:
    """I_2* is a groupoid morphism; J_2 = 0 cuts out the annihilator subgroupoid."""
    rep = SuiteReport(f"groupoid.momentum_morphism[{bundle.name}]")
    rng = stream(seed, f"groupoid.momentum_morphism/{bundle.name}")
    cot = CotangentPairOps(bundle)
    coal = CoalgebraTripleOps(bundle)
    w_mor = w_inv = w_eps = w_tv0 = 0.0
    for _ in range(samples):
        p, q, r = _sample_arrow_chain(bundle, rng)
        a = cot.random(rng, p, q)
        b = _with_target(cot, cot.random(rng, q, r), cot.source(a))
        lhs = i2_star(bundle, cot.product(a, b))
        rhs = coal.product(i2_star(bundle, a), i2_star(bundle, b))
        w_mor = max(w_mor, coal.distance(lhs, rhs))

        w_inv = max(w_inv, coal.distance(i2_star(bundle, cot.inverse(a)), coal.inverse(i2_star(bundle, a))))

        phi = bundle.random_cotangent(rng, point=p)
        w_eps = max(w_eps, coal.distance(i2_star(bundle, cot.identity(phi)), coal.identity(p)))

        # (p, Xs, q)(q, -Xs, p) = eps(p)
        trip = coal.random(rng, p, q)
        w_inv = max(w_inv, coal.distance(coal.product(trip, coal.inverse(trip)), coal.identity(p)))

        # J_2 = 0 iff the pair annihilates the diagonal vertical subspace
        psi0 = CotangentSample(a.data[1].point, a.data[1].a, -bundle.momentum(a.data[0]))
        el0 = VBElement("T*PxT*P", (a.data[0], psi0))
        w_tv0 = max(w_tv0, tv0_membership_residual(bundle, el0))
        x = bundle.group.random_algebra(rng)
        diag_vert = VBElement(
            "T(PxP)",
            (TangentVec(a.data[0].point, bundle.vertical_lift(x)), TangentVec(psi0.point, bundle.vertical_lift(x))),
        )
        pairing = float(el0.data[0].coords @ diag_vert.data[0].coords + el0.data[1].coords @ diag_vert.data[1].coords)
        w_tv0 = max(w_tv0, abs(pairing))
    rep.add("i2_star_morphism", w_mor, tol)
    rep.add("i2_star_inverse_identity", w_inv, tol)
    rep.add("i2_star_identity_section", w_eps, tol)
    rep.add("tv0_annihilator_equivalence", w_tv0, tol)
    rep.extras["trials"] = samples
    return rep


# ---------------------------------------------------------------------------
# short exact sequences, fiberwise
# ---------------------------------------------------------------------------


def _im_ker_residual(f_mat: Array, h_mat: Array) -> float:
    """|| (I - proj_im(F)) . basis(ker H) ||: image of F vs kernel of H."""
    ker, _ = _nullspace(h_mat)
    if ker.size == 0:
        return 0.0
    q, _ = np.linalg.qr(f_mat)
    resid = ker - q @ (q.T @ ker)
    return float(np.linalg.norm(resid))


def _seq_matrices(bundle: BundleSpec, sequence_id: str, p: Point, q: Point) -> tuple[Array, Array, dict]:
    """First and second maps of a short exact sequence at the arrow (p, q)."""
    d, n = bundle.d, bundle.n
    td = d + n
    if sequence_id == "duzyVtrojka":
        # P x g x P --I2--> TP x TP --A2--> (TP x TP)/g
        f = np.zeros((2 * td, n))
        f[d : d + n, :] = np.eye(n)
        f[td + d :, :] = np.eye(n)
        h = np.zeros((d + td, 2 * td))
        h[:d, :d] = np.eye(d)  # base part of v
        # w' = w - vert_q(alpha_p(v))
        a_p = _alpha_matrix(bundle, p)
        h[d:, td:] = np.eye(td)
        h[d + d :, :td] -= a_p
        info = {"dims": [n, 2 * td, d + td]}
    elif sequence_id == "duzyVdual":
        # TV0(PxP) --A2*--> T*P x T*P --I2*--> P x g* x P
        # TV0 basis: (a1, b, a2, -b)
        f = np.zeros((2 * td, 2 * d + n))
        f[:d, :d] = np.eye(d)
        f[d : d + n, d : d + n] = np.eye(n)
        f[td : td + d, d + n :] = np.eye(d)
        f[td + d :, d : d + n] = -np.eye(n)
        h = np.zeros((n, 2 * td))
        h[:, d : d + n] = np.eye(n)
        h[:, td + d :] = np.eye(n)
        info = {"dims": [2 * d + n, 2 * td, n]}
    elif sequence_id == "Adual":
        # T*(P/G) --a*--> T*P/G --iota*--> P x_{Ad*} g*
        f = np.zeros((td, d))
        f[:d, :] = np.eye(d)
        h = np.zeros((n, td))
        h[:, d:] = np.eye(n)
        info = {"dims": [d, td, n]}
    elif sequence_id == "quotiented":
        # T*((PxP)/G) --a2*--> (T*P x T*P)/G --iota2*--> (P x g* x P)/G
        # gauge-fixed fibers: source leg at fiber identity
        f = np.zeros((2 * td, 2 * d + n))
        f[:d, :d] = np.eye(d)  # a1
        f[d : d + n, d : d + n] = np.eye(n)  # b at the target leg
        f[td : td + d, d + n :] = np.eye(d)  # a2
        f[td + d :, d : d + n] = -np.eye(n)
        h = np.zeros((n, 2 * td))
        h[:, d : d + n] = np.eye(n)
        h[:, td + d :] = np.eye(n)
        info = {"dims": [2 * d + n, 2 * td, n]}
    else:
        raise KeyError(f"unknown sequence {sequence_id!r}")
    return f, h, info


def _alpha_matrix(bundle: BundleSpec, p: Point) -> Array:
    """Matrix of alpha_p on tangent coordinates, as rows of the vertical lift."""
    out = np.zeros((bundle.n, bundle.tangent_dim))
    eye = np.eye(bundle.tangent_dim)
    for i in range(bundle.tangent_dim):
        out[:, i] = bundle.alpha(p, eye[i])
    return out


def ses_fiber_check(bundle: BundleSpec, sequence_id: str, samples: int = 50, seed: int = 0, tol: float = 1e-10) -> SuiteReport:
    """Injectivity / surjectivity / im = ker at sampled arrows, by rank and residual."""
    rep = SuiteReport(f"groupoid.ses[{sequence_id}]")
    rng = stream(seed, f"groupoid.ses/{sequence_id}/{bundle.name}")
    w_inj = w_surj = w_imker = w_comp = 0.0
    dims = None
    for _ in range(samples):
        p, q = bundle.random_point(rng), bundle.random_point(rng)
        f, h, info = _seq_matrices(bundle, sequence_id, p, q)
        dims = info["dims"]
        s_f = np.linalg.svd(f, compute_uv=False)
        s_h = np.linalg.svd(h, compute_uv=False)
        w_inj = max(w_inj, 0.0 if int(np.sum(s_f > RANK_CUT * s_f[0])) == f.shape[1] else 1.0)
        w_surj = max(w_surj, 0.0 if int(np.sum(s_h > RANK_CUT * s_h[0])) == h.shape[0] else 1.0)
        w_comp = max(w_comp, float(np.max(np.abs(h @ f))))
        w_imker = max(w_imker, _im_ker_residual(f, h))
    rep.add("first_map_injective", w_inj, 0.5)
    rep.add("second_map_surjective", w_surj, 0.5)
    rep.add("composite_zero", w_comp, tol)
    rep.add("image_equals_kernel", w_imker, tol)
    rep.extras["trials"] = samples
    rep.extras["sequence_id"] = sequence_id
    rep.extras["rank_table"] = {"dims": dims, "rank_first": dims[0], "rank_second": dims[2]}

    if sequence_id == "quotiented":
        _quotient_dual_commutation(bundle, rep, samples=samples, seed=seed)
    return rep


def _quotient_dual_commutation(bundle: BundleSpec, rep: SuiteReport, samples: int, seed: int) -> None:
    """Contragredient pairing identity and Omega*/G ~ (Omega/G)* fiber isomorphism."""
    rng = stream(seed, f"groupoid.quotient_dual/{bundle.name}")
    cot = CotangentPairOps(bundle)
    tan = PairTangentOps(bundle)
    w_pair = 0.0
    w_iso = 0.0
    conds = []
    for _ in range(samples):
        p, q = bundle.random_point(rng), bundle.random_point(rng)
        g = bundle.group.random_element(rng)
        Phi = cot.random(rng, p, q)
        xi = tan.random(rng, p, q)

        def pair(Phi_el, xi_el):
            (f, s), (v, w) = Phi_el.data, xi_el.data
            return float(f.coords @ v.coords + s.coords @ w.coords)

        # <Phi g, xi g> = <Phi, xi>: the contragredient action makes the pairing invariant
        Phi_g = VBElement("T*PxT*P", (bundle.cot_act(Phi.data[0], g), bundle.cot_act(Phi.data[1], g)))
        tk = bundle.tk_g(g)
        xi_g = VBElement(
            "T(PxP)",
            (
                TangentVec(bundle.act(xi.data[0].point, g), tk @ xi.data[0].coords),
                TangentVec(bundle.act(xi.data[1].point, g), tk @ xi.data[1].coords),
            ),
        )
        w_pair = max(w_pair, abs(pair(Phi_g, xi_g) - pair(Phi, xi)))

        # <Phi g, xi'> = <Phi, xi' g^{-1}> for xi' over the shifted arrow
        xi2 = tan.random(rng, bundle.act(p, g), bundle.act(q, g))
        tki = bundle.tk_g(np.linalg.inv(g))
        xi2_back = VBElement(
            "T(PxP)",
            (
                TangentVec(p, tki @ xi2.data[0].coords),
                TangentVec(q, tki @ xi2.data[1].coords),
            ),
        )
        w_pair = max(w_pair, abs(pair(Phi_g, xi2) - pair(Phi, xi2_back)))

        # induced fiberwise map Omega*/G -> (Omega/G)*: classes given by basis
        # representatives at a translated arrow, paired after aligning both to
        # the gauge arrow by g^{-1}.  In the gauge-fixed dual bases the matrix
        # is the identity iff the implemented cotangent transport really is
        # the contragredient of the tangent one.
        gi = np.linalg.inv(g)
        cot_back = np.kron(
            np.eye(2),
            np.block(
                [
                    [np.eye(bundle.d), np.zeros((bundle.d, bundle.n))],
                    [np.zeros((bundle.n, bundle.d)), bundle.group.Ad_star(gi)],
                ]
            ),
        )
        tan_back = np.kron(np.eye(2), bundle.tk_g(gi))
        mat = cot_back.T @ tan_back
        conds.append(float(np.linalg.cond(mat)))
        w_iso = max(w_iso, float(np.max(np.abs(mat - np.eye(2 * bundle.tangent_dim)))))
    rep.add("contragredient_pairing", w_pair, 1e-12)
    rep.add("quotient_dual_iso_residual", w_iso, 1e-10)
    rep.extras["iso_condition_number"] = max(conds) if conds else 1.0
