"""Trivialized principal G-bundles: action lifts, momentum map, dual Atiyah maps.

A bundle is either a product M x G over an open box M in R^d, or the total
space of a semidirect product K x| N viewed over K with fiber N.  In both
cases a point is (base, u) with u in the structure group, the right action
fixes the base and right-multiplies the fiber, and tangent/cotangent data
uses the frame induced by the trivialization:

    tangent  (dbase, xi)   -- base velocity + left-trivialized fiber velocity
    covector (a, b)        -- pairing <(a,b), (dbase, xi)> = a.dbase + b.xi

In this frame T kappa_g = diag(I, Ad_{g^-1}), the vertical lift is
T kappa_p(e) X = (0, X), and the momentum map J(phi) = phi o T kappa_p(e)
reads off the fiber covector components.  Quotients by G are represented by
the gauge-fixed representative on the fiber-identity slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import fd, schema
from .liealg import LieGroupSpec
from .linalg import exactness, row_dot, row_matvec, row_norm
from .report import SuiteReport, worst
from .rng import stream

Array = np.ndarray

ALGEBRAIC_TOL = 1e-10
FD_TOL = 1e-9
# the margin ConnectionData.finite_on leaves above A(m) for its products with sampled
# velocities and covectors (standard normal entries) and the sums of those products
COEFFICIENT_HEADROOM = 1e6


# ---------------------------------------------------------------------------
# connection data: polynomial local connection coefficients
# ---------------------------------------------------------------------------

Monomial = tuple[float, tuple[int, ...]]


@dataclass
class ConnectionData:
    """Local connection coefficients A: M -> g-valued one-forms.

    ``terms[i][k]`` lists monomials (coef, exponents) of the polynomial
    A_i^k(m), so the g-valued one-form is A(m) dm with matrix
    A(m)[k, i] = A_i^k(m).  Degree <= 3 keeps the JSON format closed.
    The induced connection form on TP in the trivialized frame is

        alpha_p(dbase, xi) = Ad_{u^-1}( A(base) dbase ) + xi.
    """

    base_dim: int
    fiber_dim: int
    terms: list[list[list[Monomial]]]

    @staticmethod
    def flat(base_dim: int, fiber_dim: int) -> "ConnectionData":
        terms = [[[] for _ in range(fiber_dim)] for _ in range(base_dim)]
        return ConnectionData(base_dim, fiber_dim, terms)

    @property
    def is_flat(self) -> bool:
        """Whether every coefficient A_i^k is the zero polynomial: every monomial has coefficient 0, or there is none."""
        return not any(c for per_base in self.terms for monos in per_base for c, _ in monos)

    def matrix(self, m: Array) -> Array:
        """Evaluate A(m) as an (n, d) matrix acting on base velocities, one per point of a stack (..., d)."""
        m = np.asarray(m, dtype=float)
        a = np.zeros(m.shape[:-1] + (self.fiber_dim, self.base_dim))
        for i in range(self.base_dim):
            for k in range(self.fiber_dim):
                a[..., k, i] = _poly_eval(self.terms[i][k], m)
        return a

    def finite_on(self, box: Array) -> bool:
        """Whether A(m) times COEFFICIENT_HEADROOM is finite on a box (d, 2).

        The suites multiply A(m) by sampled velocities and covectors and sum
        the products, so A itself being finite is not enough: a coefficient
        of 1e308 on the unit box is finite, but its products with a covector
        are not.  Each monomial is largest in magnitude at the corner of
        largest magnitudes, so the monomials with absolute coefficients bound
        A there over the whole box: one evaluation instead of 2^d corners.  A
        sum that cancels to finite values at every corner but overflows in
        this bound is rejected too.
        """
        corner = np.abs(box).max(axis=1)
        bound = ConnectionData(self.base_dim, self.fiber_dim, [[[(abs(c), e) for c, e in monos] for monos in per_base] for per_base in self.terms])
        with np.errstate(over="ignore", invalid="ignore"):
            return bool(np.isfinite(bound.matrix(corner) * COEFFICIENT_HEADROOM).all())

    def curvature_two_form(self, m: Array) -> Array:
        """Exact exterior derivative dA: array F[..., i, j, k] = (dA^k)(e_i, e_j), one per point of a stack (..., d)."""
        d, n = self.base_dim, self.fiber_dim
        m = np.asarray(m, dtype=float)
        f = np.zeros(m.shape[:-1] + (d, d, n))
        for k in range(n):
            for i in range(d):
                for j in range(d):
                    f[..., i, j, k] = _poly_eval(_poly_partial(self.terms[j][k], i), m) - _poly_eval(
                        _poly_partial(self.terms[i][k], j), m
                    )
        return f

    @staticmethod
    def from_json(doc: Any, base_dim: int, fiber_dim: int) -> "ConnectionData":
        """``{"A": [...]}``: per base coordinate, per algebra basis element, a list of [coef, exponents] monomials; absent ones are 0."""
        raw = schema.items("connection", schema.section("connection", doc).get("A", []), high=base_dim)
        terms: list[list[list[Monomial]]] = [[[] for _ in range(fiber_dim)] for _ in range(base_dim)]
        for i, per_base in enumerate(raw):
            for k, monos in enumerate(schema.items("connection", per_base, high=fiber_dim)):
                terms[i][k] = [_monomial(mono, base_dim) for mono in schema.items("connection", monos)]
        return ConnectionData(base_dim, fiber_dim, terms)


def _monomial(raw: Any, base_dim: int) -> Monomial:
    c, exps = schema.items("connection", raw, 2, 2)
    exps = tuple(schema.integer("connection", e, 0) for e in schema.items("connection", exps, base_dim, base_dim))
    if sum(exps) > 3:
        raise ValueError(f"'connection' monomials must have degree <= 3, got {raw!r}")
    return schema.number("connection", c), exps


def _poly_eval(monos: list[Monomial], m: Array) -> float | Array:
    """The polynomial at a point m, or at each point of a stack (..., d).

    Powers above the first are ``np.float_power`` (C ``pow``), the bits of Python's ``x**e``.
    """
    total = 0.0
    for c, exps in monos:
        v = c
        for i, e in enumerate(exps):
            if e:
                v = v * (m[..., i] if e == 1 else np.float_power(m[..., i], e))
        total = total + v
    return total


def _poly_partial(monos: list[Monomial], i: int) -> list[Monomial]:
    out = []
    for c, exps in monos:
        if exps[i] > 0:
            new = list(exps)
            new[i] -= 1
            out.append((c * exps[i], tuple(new)))
    return out


# ---------------------------------------------------------------------------
# points and samples
# ---------------------------------------------------------------------------


def map_matrix(linear: Callable[[Array], Array], dim: int, point: Point) -> Array:
    """Matrix of a linear map on R^dim at each point of a stack: ``linear`` applied to the standard basis.

    ``linear`` gets the basis as a stack (dim, 1, ..., 1, dim) that broadcasts
    against the points and returns one image per basis vector; the images are
    the columns, so the result is (..., out, dim), or the covector (..., dim) of
    a map to numbers.
    """
    lead = point.fiber.shape[:-2]
    mat = np.moveaxis(linear(np.eye(dim).reshape((dim,) + (1,) * len(lead) + (dim,))), 0, -1)
    return np.broadcast_to(mat, lead + mat.shape[len(lead) :])


@dataclass(frozen=True)
class Point:
    """Bundle point: base coordinates (vector) or base group element (matrix), plus fiber element.

    A stack of N points carries one more leading axis of length N on both.
    """

    base: Array
    fiber: Array


@dataclass(frozen=True)
class CotangentSample:
    """Covector phi at a point, components (a, b) in the trivialized frame."""

    point: Point
    a: Array
    b: Array

    @property
    def coords(self) -> Array:
        return np.concatenate([self.a, self.b], axis=-1)


@dataclass(frozen=True)
class QuotientClass:
    """Class <phi> in T*P/G by its gauge-fixed representative (fiber = identity)."""

    rep: CotangentSample


@dataclass(frozen=True)
class BoxBase:
    """The base M as an open box in R^d, ``box`` of shape (d, 2) with rows [lo, hi]: a base point is its coordinate vector."""

    box: Array
    label = "TrivialProduct"  # the bundle's report name is label[group]
    point_axes = 1  # the trailing axes of one base point

    def __post_init__(self) -> None:
        box = np.asarray(self.box, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "box", box)
        with np.errstate(over="ignore"):
            width = box[:, 1] - box[:, 0]
        if not (np.isfinite(box).all() and np.isfinite(width).all() and (width > 0).all()):
            raise ValueError(f"'base_box' rows must be finite [lo, hi] with lo < hi and a finite width hi - lo, got {box.tolist()}")

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    def check(self, _connection: ConnectionData) -> None:
        """Every connection is admitted on a box: its coefficients may be any polynomials."""

    def random_coords(self, rng: np.random.Generator, lead: tuple[int, ...]) -> Array:
        """Uniform on the middle 80% of the box, a block of leading shape ``lead``."""
        lo, hi = self.box[:, 0], self.box[:, 1]
        return lo + (hi - lo) * rng.uniform(0.1, 0.9, size=lead + (self.dim,))

    def at(self, coords: Array) -> Array:
        return coords

    def move(self, base: Array, delta: Array) -> Array:
        return base + delta

    velocity = staticmethod(fd.quotient)  # of a base curve, from its points at -h and +h

    def connection_coords(self, base: Array) -> Array:
        return base


@dataclass(frozen=True)
class GroupBase:
    """The base as the group K, points group elements (m, m); the section k -> (k, e) is horizontal, so connection coefficients vanish."""

    group: LieGroupSpec
    label = "SemidirectTotal"
    point_axes = 2

    @property
    def dim(self) -> int:
        return self.group.dim

    def check(self, connection: ConnectionData) -> None:
        if not connection.is_flat:
            raise ValueError(f"{self.label} uses the section connection; coefficients must vanish")

    def random_coords(self, rng: np.random.Generator, lead: tuple[int, ...]) -> Array:
        """Algebra coordinates of K, a block of leading shape ``lead``, exponentiated by ``at``."""
        return self.group.random_algebra(rng, 0.4, lead)

    def at(self, coords: Array) -> Array:
        return self.group.exp(coords)

    def move(self, base: Array, delta: Array) -> Array:
        """Right multiplication by exp(delta), so a velocity is left-trivialized."""
        return base @ self.group.exp(delta)

    def velocity(self, minus: Array, plus: Array, h: float) -> Array:
        return fd.group_velocity(self.group, minus, plus, h)

    def connection_coords(self, base: Array) -> Array:
        return np.zeros(np.shape(base)[:-2] + (self.dim,))  # section connection: A == 0 on a group base


@dataclass
class BundleSpec:
    """A trivialized principal bundle P(M, G) with a connection, over a base chart: a box, or the group K of K x| N."""

    group: LieGroupSpec
    connection: ConnectionData
    base: BoxBase | GroupBase
    name: str = ""

    def __post_init__(self) -> None:
        if (self.connection.base_dim, self.connection.fiber_dim) != (self.base.dim, self.group.dim):
            raise ValueError(f"connection of shape (base {self.connection.base_dim}, fiber {self.connection.fiber_dim}) "
                             f"does not fit base dim {self.base.dim} and group {self.group.name} of dim {self.group.dim}")
        self.base.check(self.connection)
        if not self.name:
            self.name = f"{self.base.label}[{self.group.name}]"

    # -- dimensions -----------------------------------------------------------

    @property
    def d(self) -> int:
        return self.base.dim

    @property
    def n(self) -> int:
        return self.group.dim

    @property
    def tangent_dim(self) -> int:
        return self.d + self.n

    # -- sampling -------------------------------------------------------------

    def gauge_point(self, base: Array) -> Point:
        """The point over ``base`` on the fiber-identity slice, one per base of a stack."""
        e = self.group.identity()
        fiber = np.empty(base.shape[: base.ndim - self.base.point_axes] + e.shape)
        fiber[...] = e
        return Point(base, fiber)

    def random_base(self, rng: np.random.Generator, lead: tuple[int, ...]) -> Array:
        """A block of random base points of leading shape ``lead``: base coordinates drawn once, then ``base.at``."""
        return self.base.at(self.base.random_coords(rng, lead))

    def random_points(self, rng: np.random.Generator, lead: tuple[int, ...]) -> Point:
        """A stack of random points of leading shape ``lead``: one block of base
        coordinates, then one block of fiber algebra coordinates, exponentiated once."""
        return Point(self.random_base(rng, lead), self.group.exp(self.group.random_algebra(rng, lead=lead)))

    def random_cotangents(self, rng: np.random.Generator, lead: tuple[int, ...]) -> CotangentSample:
        """A stack of covectors at random points (``random_points``), then their components a and b, each a block."""
        return CotangentSample(self.random_points(rng, lead), rng.standard_normal(lead + (self.d,)), rng.standard_normal(lead + (self.n,)))

    # -- point arithmetic -------------------------------------------------------

    def base_distance(self, b1: Array, b2: Array) -> float | Array:
        return row_norm(np.asarray(b1) - np.asarray(b2), self.base.point_axes)

    def point_distance(self, p: Point, q: Point) -> float | Array:
        """Base plus fiber distance, one per point of a stack (a float for single points)."""
        return self.base_distance(p.base, q.base) + row_norm(p.fiber - q.fiber, 2)

    def sample_distance(self, s: CotangentSample, t: CotangentSample) -> float | Array:
        """Point distance plus the distances of the covector components a and b, one per sample of a stack."""
        return self.point_distance(s.point, t.point) + row_norm(s.a - t.a) + row_norm(s.b - t.b)

    def moved(self, sample: CotangentSample, v: Array) -> CotangentSample:
        """The sample moved along v = (dbase, xi, da, db), per row of broadcast stacks: the base chart's
        move by dbase, the fiber times exp(xi), so xi is left-trivialized, and the covector plus (da, db)."""
        d, n, p = self.d, self.n, sample.point
        point = Point(self.base.move(p.base, v[..., :d]), p.fiber @ self.group.exp(v[..., d : d + n]))
        return CotangentSample(point, sample.a + v[..., d + n : 2 * d + n], sample.b + v[..., 2 * d + n :])

    # -- the principal action and its lifts -------------------------------------

    def act(self, point: Point, g: Array) -> Point:
        """kappa(p, g) = p g: fixes the base, right-multiplies the fiber."""
        return Point(point.base, point.fiber @ g)

    def tk_g(self, g: Array) -> Array:
        """Matrix of T kappa_g(p) on tangent coordinates: diag(I, Ad_{g^-1}), one per element of a stack."""
        ad = self.group.Ad_inv(g)
        out = np.zeros(ad.shape[:-2] + (self.tangent_dim, self.tangent_dim))
        out[..., : self.d, : self.d] = np.eye(self.d)
        out[..., self.d :, self.d :] = ad
        return out

    def tk_p_e(self) -> Array:
        """Matrix of the vertical lift T kappa_p(e): g -> T_p P, X -> (0, X)."""
        out = np.zeros((self.tangent_dim, self.n))
        out[self.d :, :] = np.eye(self.n)
        return out

    def vertical_lift(self, x: Array) -> Array:
        """(0, X) for X in g, or for each row of a stack of them."""
        return np.asarray(x, dtype=float) @ self.tk_p_e().T

    def cot_act(self, sample: CotangentSample, g: Array) -> CotangentSample:
        """T* kappa_g(p) phi = phi o T kappa_g(p)^{-1} at the moved point, per row of a stack."""
        b = row_matvec(self.group.Ad_star(g), sample.b)
        return CotangentSample(self.act(sample.point, g), sample.a.copy(), b)

    # -- connection form ---------------------------------------------------------

    def alpha(self, point: Point, tangent: Array) -> Array:
        """Connection one-form alpha_p in the trivialized frame, per point of a stack.

        ``tangent`` rows (..., d + n) broadcast against the points.
        """
        dbase, xi = tangent[..., : self.d], tangent[..., self.d :]
        a_mat = self.connection.matrix(self.base.connection_coords(point.base))
        return row_matvec(self.group.Ad_inv(point.fiber), row_matvec(a_mat, dbase)) + xi

    # -- canonical one-form, momentum map ----------------------------------------

    def gamma(self, sample: CotangentSample, tangent: Array) -> float | Array:
        """Canonical one-form of T*P paired with a base-motion tangent (dbase, xi), per row of a stack."""
        return row_dot(sample.a, tangent[..., : self.d]) + row_dot(sample.b, tangent[..., self.d :])

    def check_sample(self, sample: CotangentSample) -> None:
        coords = sample.coords
        if coords.shape[-1:] != (self.tangent_dim,) or not np.all(np.isfinite(coords)):
            raise ValueError("invalid cotangent sample: wrong shape or non-finite covector")
        if not np.all(np.isfinite(sample.point.fiber)):
            raise ValueError("invalid cotangent sample: non-finite fiber element")

    def momentum(self, sample: CotangentSample) -> Array:
        """J(phi) = phi o T kappa_p(e): the n vertical pairings, for one covector or a stack."""
        self.check_sample(sample)
        return sample.coords @ self.tk_p_e()

    def equivariance_residual(self, sample: CotangentSample, g: Array) -> float | Array:
        """|| J(phi . g) - J(phi) o Ad_g ||, per row of a stack.

        J(phi) o Ad_g is the coadjoint transport matching the lifted right
        action (Ad*_g in this package's convention).
        """
        lhs = self.momentum(self.cot_act(sample, g))
        rhs = row_matvec(self.group.Ad_star(g), self.momentum(sample))
        return row_norm(lhs - rhs)

    # -- quotient representatives --------------------------------------------------

    def quotient_rep(self, sample: CotangentSample) -> QuotientClass:
        """Gauge-fixed representative of <phi>: act with T*kappa_{u^-1}, per row of a stack."""
        rep = self.cot_act(sample, self.group.inverse(sample.point.fiber))
        return QuotientClass(CotangentSample(self.gauge_point(rep.point.base), rep.a, rep.b))

    def class_coords(self, sample: CotangentSample) -> Array:
        """Coordinates (m, a, bbar) of the class of a sample: its gauge-fixed representative."""
        rep = self.quotient_rep(sample).rep
        return np.concatenate([rep.point.base, rep.a, rep.b], axis=-1)

    def class_distance(self, c1: QuotientClass, c2: QuotientClass) -> float | Array:
        return self.base_distance(c1.rep.point.base, c2.rep.point.base) + row_norm(c1.rep.coords - c2.rep.coords)

    # -- dual Atiyah sequence maps ----------------------------------------------

    def iota_star(self, cls: QuotientClass) -> tuple[Array, Array]:
        """iota* on a quotient class: gauge-fixed pair (base, J(rep)), per row of a stack."""
        return cls.rep.point.base, self.momentum(cls.rep)

    def a_star(self, base: Array, rho: Array) -> QuotientClass:
        """Dual anchor: rho in T*(P/G) -> class of the mu-pullback (rho, 0); rows of ``rho`` broadcast against a stack of bases."""
        rho = np.asarray(rho, dtype=float)
        if rho.shape[-1:] != (self.d,):
            raise ValueError("dimension mismatch in a_star")
        return QuotientClass(CotangentSample(self.gauge_point(base), rho.copy(), np.zeros(rho.shape[:-1] + (self.n,))))

    def sigma(self, base: Array, chi: Array) -> QuotientClass:
        """Section of iota* induced by the connection: sigma = [alpha~]*, per base of a stack.

        At the gauge-fixed point the covector is chi o alpha_p, i.e.
        (A(base)^T chi, chi) in the trivialized frame.
        """
        chi = np.asarray(chi, dtype=float)
        a_mat = self.connection.matrix(self.base.connection_coords(base))
        return QuotientClass(CotangentSample(self.gauge_point(base), row_matvec(a_mat.swapaxes(-1, -2), chi), chi.copy()))

    def sigma_tilde(self, cls: QuotientClass) -> Array:
        """Projection T*P/G -> T*(P/G) defined by sigma through the affine action."""
        base, chi = self.iota_star(cls)
        return cls.rep.a - self.sigma(base, chi).rep.a


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def action_suite(b: BundleSpec, samples: int = 25, seed: int = 0) -> SuiteReport:
    """Check the composition/inversion/cocycle identities of the lifted action."""
    rep = SuiteReport(f"bundle.action[{b.name}]")
    rng = stream(seed, f"bundle.action/{b.name}")
    G = b.group
    # the covector phi at a point p, g and h, a tangent v and X in g
    phi = b.random_cotangents(rng, (samples,))
    p = phi.point
    g, h = G.exp(G.random_algebra(rng, lead=(2, samples)))
    v, x = rng.standard_normal((samples, b.tangent_dim)), G.random_algebra(rng, lead=(samples,))
    gi = G.inverse(g)
    w = {}

    # (w1) kappa_g o kappa_p = kappa_p o R_g and (w3) kappa_{pg} = kappa_p o L_g
    w["w1"] = b.point_distance(b.act(b.act(p, h), g), b.act(p, h @ g))
    w["w3"] = b.point_distance(b.act(b.act(p, g), h), b.act(p, g @ h))
    # (w2) kappa_g o kappa_p = kappa_{pg} o I_{g^-1}
    w["w2"] = b.point_distance(b.act(b.act(p, h), g), b.act(b.act(p, g), gi @ h @ g))

    # (w4) T kappa_{pg}(e) = T kappa_g(p) o T kappa_p(e) o Ad_g
    tk = b.tk_g(g)
    w["w4"] = np.abs(b.tk_p_e() - tk @ b.tk_p_e() @ G.Ad(g))
    # (w6) inversion, (w7) cocycle, (w8) cotangent cocycle
    tk_inv = np.linalg.inv(tk)
    w["w6"] = np.abs(tk_inv - b.tk_g(gi))
    w["w7"] = np.abs(b.tk_g(g @ h) - b.tk_g(h) @ tk)

    phi_g = b.cot_act(phi, g)
    w["w8"] = row_norm(b.cot_act(phi, g @ h).coords - b.cot_act(phi_g, h).coords)

    # T*kappa_g = (T kappa_g^{-1})* by pairing duality
    w["duality"] = np.abs(row_dot(phi_g.coords, v) - row_dot(phi.coords, row_matvec(tk_inv, v)))

    # identity element acts trivially
    w["unit"] = np.abs(b.tk_g(G.identity()) - np.eye(b.tangent_dim))

    # equivariance of the vertical trivialization: Tkappa_g (0, X) = (0, Ad_{g^-1} X)
    lhs_v = row_matvec(tk, b.vertical_lift(x))
    rhs_v = b.vertical_lift(row_matvec(G.Ad_inv(g), x))
    w["vert_equivariance"] = np.abs(lhs_v - rhs_v)

    for name, resid in sorted(w.items()):
        rep.add(name, worst(resid), ALGEBRAIC_TOL)
    rep.extras["trials"] = samples
    return rep


def connection_suite(b: BundleSpec, samples: int = 25, seed: int = 0) -> SuiteReport:
    """ConnectionData invariants: reproducing property and equivariance."""
    rep = SuiteReport(f"bundle.connection[{b.name}]")
    rng = stream(seed, f"bundle.connection/{b.name}")
    G = b.group
    p, x = b.random_points(rng, (samples,)), G.random_algebra(rng, lead=(samples,))
    g, v = G.exp(G.random_algebra(rng, lead=(samples,))), rng.standard_normal((samples, b.tangent_dim))
    r1 = row_norm(b.alpha(p, b.vertical_lift(x)) - x)
    lhs = b.alpha(b.act(p, g), row_matvec(b.tk_g(g), v))
    rhs = row_matvec(G.Ad_inv(g), b.alpha(p, v))
    rep.add("reproduces_vertical", worst(r1), ALGEBRAIC_TOL)
    rep.add("Ad_equivariance", worst(row_norm(lhs - rhs)), ALGEBRAIC_TOL)
    rep.extras["trials"] = samples
    return rep


def momentum_suite(b: BundleSpec, samples: int = 60, seed: int = 0) -> SuiteReport:
    """Momentum equivariance, gamma-invariance, and quotient gauge invariance."""
    rep = SuiteReport(f"bundle.momentum[{b.name}]")
    rng = stream(seed, f"bundle.momentum/{b.name}")
    G = b.group
    # the covector phi (point, then components), g and a tangent v
    phi = b.random_cotangents(rng, (samples,))
    g, v = G.exp(G.random_algebra(rng, lead=(samples,))), rng.standard_normal((samples, b.tangent_dim))
    phi_g = b.cot_act(phi, g)
    req = b.equivariance_residual(phi, g)

    # gamma-invariance under the lifted action: pair before and after
    rgam = np.abs(b.gamma(phi, v) - b.gamma(phi_g, row_matvec(b.tk_g(g), v)))

    # quotient representative: orbit invariance and idempotence
    c1 = b.quotient_rep(phi)
    rquo = b.class_distance(c1, b.quotient_rep(phi_g))
    ridem = b.class_distance(c1, b.quotient_rep(c1.rep))

    # phi annihilating the vertical subspace lies in J^{-1}(0)
    rker = row_norm(b.momentum(CotangentSample(phi.point, phi.a, np.zeros_like(phi.b))))
    rep.add("J_equivariance", worst(req), ALGEBRAIC_TOL)
    rep.add("gamma_invariance", worst(rgam), ALGEBRAIC_TOL)
    rep.add("quotient_orbit_invariance", worst(rquo), 1e-11)
    rep.add("quotient_idempotent", worst(ridem), 1e-11)
    rep.add("vertical_annihilator_in_J0", worst(rker), 1e-13)
    rep.extras["trials"] = samples
    return rep


def dual_atiyah_matrices(b: BundleSpec, base: Array) -> tuple[Array, Array]:
    """Matrices of a*: T*(P/G) -> T*P/G and iota*: T*P/G -> g* at each base of a stack, on the coordinates (a, b) of gauge-fixed representatives."""
    point = b.gauge_point(base)
    a_mat = map_matrix(lambda rho: b.a_star(base, rho).rep.coords, b.d, point)
    i_mat = map_matrix(lambda x: b.iota_star(QuotientClass(CotangentSample(point, x[..., : b.d], x[..., b.d :])))[1], b.tangent_dim, point)
    return a_mat, i_mat


def dual_sequence_suite(b: BundleSpec, samples: int = 50, seed: int = 0) -> SuiteReport:
    """Fiberwise exactness of the dual Atiyah sequence, by ``linalg.exactness``, and section identities."""
    rep = SuiteReport(f"bundle.dual_sequence[{b.name}]")
    rng = stream(seed, f"bundle.dual_sequence/{b.name}")
    base, chi = b.random_base(rng, (samples,)), rng.standard_normal((samples, b.n))
    injective, surjective, composite, image_kernel, ranks = exactness(*dual_atiyah_matrices(b, base))
    rep.flag("first_map_injective", injective)
    rep.flag("second_map_surjective", surjective)
    rep.add("composite_zero", composite, 1e-11)
    rep.add("image_equals_kernel", image_kernel, 1e-10)
    sec = b.sigma(base, chi)
    base2, chi2 = b.iota_star(sec)
    rep.add("iota_after_sigma_identity", worst(row_norm(chi2 - chi) + b.base_distance(base2, base)), 1e-11)
    if b.connection.is_flat:
        rep.add("flat_sigma_zero_base_part", worst(row_norm(sec.rep.a)), 1e-11)
    rep.extras["trials"] = samples
    rep.extras["rank_table"] = ranks
    return rep


def anchor_pullback_suite(b: BundleSpec, samples: int = 40, seed: int = 0) -> SuiteReport:
    """The local dual anchor pulls the canonical form of T*P back to that of T*(P/G).

    Pairings on the T*P side use finite-difference tangents of the curve
    t -> a*_section(rho(t)) so the two sides are computed independently.
    """
    rep = SuiteReport(f"bundle.anchor_pullback[{b.name}]")
    rng = stream(seed, f"bundle.anchor_pullback/{b.name}")
    base, (rho, dbase) = b.random_base(rng, (samples,)), rng.standard_normal((2, samples, b.d))

    # finite-difference tangent of the image curve in T*P coordinates
    h = fd.FINE_STEP
    fd_base = b.base.velocity(b.base.move(base, -h * dbase), b.base.move(base, h * dbase), h)
    tangent = np.concatenate([fd_base, np.zeros((samples, b.n))], axis=-1)
    lhs = b.gamma(b.a_star(base, rho).rep, tangent)
    rhs = row_dot(rho, dbase)  # canonical form of T*(P/G) on (dbase, drho)
    rep.add("pullback_matches_canonical", worst(np.abs(lhs - rhs)), FD_TOL)
    rep.extras["trials"] = samples
    return rep


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------


def bundle_from_json(doc: dict, group_resolver: Callable[[Any], LieGroupSpec]) -> BundleSpec:
    """A bundle from its JSON document; ``group_resolver`` reads ``group`` and ``base_group``."""
    kind, group = schema.text("kind", doc.get("kind")), group_resolver(doc.get("group"))
    if kind == "TrivialProduct":
        base = BoxBase(schema.array("base_box", doc.get("base_box"), (None, 2)))
        # the highest power of a coordinate that the suites evaluate is the fourth, in the
        # Leibniz check of poisson.properties (a product of two quadratics)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(base.box).max(axis=1) ** 4).all():
                raise ValueError(f"'base_box' {base.box.tolist()} is too large: fourth powers of its coordinates overflow")
    elif kind == "SemidirectTotal":
        base = GroupBase(group_resolver(doc.get("base_group")))
    else:
        raise ValueError(f"unknown bundle kind {kind!r}")
    conn = ConnectionData.from_json(doc.get("connection", {}), base.dim, group.dim)
    if isinstance(base, BoxBase) and not conn.finite_on(base.box):
        raise ValueError(f"'connection' coefficients are too large on 'base_box' {base.box.tolist()}: A(m) is within {COEFFICIENT_HEADROOM:g} of overflow at its corners")
    return BundleSpec(group, conn, base)
