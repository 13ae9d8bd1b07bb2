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

from dataclasses import dataclass, is_dataclass
from typing import Any, Callable

import numpy as np

from . import fd, schema
from .liealg import LieGroupSpec
from .linalg import rank_gap
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


def row_dot(u: Array, v: Array) -> Array:
    """Dot products over the last axis, broadcast over the leading ones.

    Each row is one BLAS dot, so a single pair gives the bits of ``u @ v``.
    """
    return np.vecdot(u, v)


def row_matvec(m: Array, x: Array) -> Array:
    """m @ x per row: matrices (..., r, c) applied to vectors (..., c), broadcast over the leading axes.

    Each row is one BLAS matrix-vector product, so a single pair gives the bits of ``m @ x``.
    """
    return (m @ x[..., None])[..., 0]


def row_vecmat(v: Array, m: Array) -> Array:
    """v @ m per row: vectors (..., r) times matrices (..., r, c), one BLAS vector-matrix product per row."""
    return (v[..., None, :] @ m)[..., 0, :]


def row_form(v1: Array, omega: Array, v2: Array) -> float | Array:
    """v1 . omega . v2, per row of stacks; a float for one pair (the bits of ``v1 @ omega @ v2``)."""
    out = row_dot(row_vecmat(v1, omega), v2)
    return float(out) if np.ndim(out) == 0 else out


def row_norm(x: Array, ndim: int = 1) -> float | Array:
    """Euclidean norm over the trailing ``ndim`` axes: a float for one vector
    or matrix, an array for a stack (same bits as ``np.linalg.norm`` per row)."""
    flat = np.reshape(x, np.shape(x)[: np.ndim(x) - ndim] + (-1,))
    out = np.sqrt(row_dot(flat, flat))
    return float(out) if np.ndim(out) == 0 else out


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


def draw_samples(samples: int, draw_one: Callable[[], tuple]) -> list:
    """Call ``draw_one`` ``samples`` times, in stream order, and stack each of its outputs.

    An array output gains a leading axis of length ``samples`` and keeps its
    dtype (floats, the integers of a choice, a boolean mask); a dataclass of
    arrays (a ``Point``, a ``poisson.Polynomial``) becomes the same
    dataclass of stacks.  Each draw is written into its row at once, so only
    one sample's arrays are alive at a time.  A suite draws algebra
    coordinates rather than group elements where it can, and exponentiates
    the stacks afterwards (``BundleSpec.point_at``): the exponential takes no
    randomness.

    The bundle, Poisson and CLI suites draw through this loop.  The groupoid
    and semidirect suites do not: they draw each variable once as a block
    (``BundleSpec.random_points``, ``SemidirectSpec.random_pairs``,
    ``rng.standard_normal((N, k))``).
    """
    stacks: list = []
    for i in range(samples):
        draw = draw_one()
        if not stacks:
            stacks = [type(x)(*(_rows(samples, v) for v in vars(x).values())) if is_dataclass(x) else _rows(samples, x) for x in draw]
            fielded = [is_dataclass(x) for x in draw]
        for stack, x, by_field in zip(stacks, draw, fielded):
            if by_field:
                for rows, value in zip(vars(stack).values(), vars(x).values()):
                    rows[i] = value
            else:
                stack[i] = x
    return stacks


def _rows(samples: int, like: Array) -> Array:
    return np.empty((samples,) + np.shape(like), dtype=np.result_type(like))


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


@dataclass
class BundleSpec:
    """A trivialized principal bundle P(M, G) with a connection.

    kind "TrivialProduct": base is an open box, ``base_box`` of shape (d, 2).
    kind "SemidirectTotal": base is the group K (``base_group``); connection
    coefficients must vanish there (the section k -> (k, e) supplies the
    horizontal distribution).
    """

    kind: str
    group: LieGroupSpec
    connection: ConnectionData
    base_box: Array | None = None
    base_group: LieGroupSpec | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("TrivialProduct", "SemidirectTotal"):
            raise ValueError(f"unknown bundle kind {self.kind!r}")
        if self.kind == "TrivialProduct":
            self.base_box = np.asarray(self.base_box, dtype=float).reshape(-1, 2)
            with np.errstate(over="ignore"):
                width = self.base_box[:, 1] - self.base_box[:, 0]
            if not (np.isfinite(self.base_box).all() and np.isfinite(width).all() and (width > 0).all()):
                raise ValueError(f"'base_box' rows must be finite [lo, hi] with lo < hi and a finite width hi - lo, got {self.base_box.tolist()}")
        else:
            if self.base_group is None:
                raise ValueError("SemidirectTotal requires base_group")
            if not self.connection.is_flat:
                raise ValueError("SemidirectTotal uses the section connection; coefficients must vanish")
        if not self.name:
            self.name = f"{self.kind}[{self.group.name}]"

    # -- dimensions -----------------------------------------------------------

    @property
    def d(self) -> int:
        if self.kind == "TrivialProduct":
            return self.base_box.shape[0]
        return self.base_group.dim

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
        fiber = np.empty(base.shape[: -1 if self.kind == "TrivialProduct" else -2] + e.shape)
        fiber[...] = e
        return Point(base, fiber)

    def random_base(self, rng: np.random.Generator) -> Array:
        return self._base_at(self._random_base_coords(rng))

    def _random_base_coords(self, rng: np.random.Generator, lead: tuple[int, ...] = ()) -> Array:
        if self.kind == "TrivialProduct":
            lo, hi = self.base_box[:, 0], self.base_box[:, 1]
            return lo + (hi - lo) * rng.uniform(0.1, 0.9, size=lead + (self.d,))
        return self.base_group.random_algebra(rng, 0.4, lead)

    def random_point_coords(self, rng: np.random.Generator) -> tuple[Array, Array]:
        """The coordinates of one random point before any exponential: the base
        (algebra coordinates of K on a group base) and the fiber's algebra coordinates."""
        return self._random_base_coords(rng), self.group.random_algebra(rng)

    def random_points(self, rng: np.random.Generator, lead: tuple[int, ...]) -> Point:
        """A stack of random points of leading shape ``lead``: one block of base
        coordinates, then one block of fiber algebra coordinates, exponentiated once."""
        return self.point_at(self._random_base_coords(rng, lead), self.group.random_algebra(rng, lead=lead))

    def point_at(self, base: Array, fiber: Array) -> Point:
        """The point of coordinates drawn by ``random_point_coords``, or the stack of them."""
        return Point(self._base_at(base), self.group.exp(fiber))

    def _base_at(self, coords: Array) -> Array:
        return coords if self.kind == "TrivialProduct" else self.base_group.exp(coords)

    def random_tangent(self, rng: np.random.Generator) -> Array:
        return rng.standard_normal(self.tangent_dim)

    def random_covector(self, rng: np.random.Generator) -> tuple[Array, Array]:
        """Components (a, b) of a covector in the trivialized frame."""
        return rng.standard_normal(self.d), rng.standard_normal(self.n)

    # -- point arithmetic -------------------------------------------------------

    def base_move(self, base: Array, delta: Array, t: float = 1.0) -> Array:
        """The base moved by t along delta, per row of stacks."""
        if self.kind == "TrivialProduct":
            return base + t * np.asarray(delta, dtype=float)
        return base @ self.base_group.exp(t * np.asarray(delta, dtype=float))

    def base_distance(self, b1: Array, b2: Array) -> float | Array:
        return row_norm(np.asarray(b1) - np.asarray(b2), 1 if self.kind == "TrivialProduct" else 2)

    def point_distance(self, p: Point, q: Point) -> float | Array:
        """Base plus fiber distance, one per point of a stack (a float for single points)."""
        return self.base_distance(p.base, q.base) + row_norm(p.fiber - q.fiber, 2)

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

    def base_coords_for_connection(self, base: Array) -> Array:
        if self.kind == "TrivialProduct":
            return base
        return np.zeros(np.shape(base)[:-2] + (self.d,))  # section connection: A == 0 on a group base

    def alpha(self, point: Point, tangent: Array) -> Array:
        """Connection one-form alpha_p in the trivialized frame, per point of a stack.

        ``tangent`` rows (..., d + n) broadcast against the points.
        """
        dbase, xi = tangent[..., : self.d], tangent[..., self.d :]
        a_mat = self.connection.matrix(self.base_coords_for_connection(point.base))
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
        if self.kind != "TrivialProduct":
            raise ValueError("class coordinates require a TrivialProduct bundle chart")
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
        a_mat = self.connection.matrix(self.base_coords_for_connection(base))
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

    def draw() -> tuple:
        # the point p, the algebra coordinates of g and h, the covector phi at p, a tangent v and X in g
        return *b.random_point_coords(rng), G.random_algebra(rng), G.random_algebra(rng), *b.random_covector(rng), b.random_tangent(rng), G.random_algebra(rng)

    base, fiber, g, h, phi_a, phi_b, v, x = draw_samples(samples, draw)
    p = b.point_at(base, fiber)
    g, h = G.exp(np.stack([g, h]))
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

    phi = CotangentSample(p, phi_a, phi_b)
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
    base, fiber, x, g, v = draw_samples(samples, lambda: (*b.random_point_coords(rng), G.random_algebra(rng), G.random_algebra(rng), b.random_tangent(rng)))
    p = b.point_at(base, fiber)
    g = G.exp(g)
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
    # per sample: the covector phi (point, then components), g and a tangent v
    base, fiber, phi_a, phi_b, g, v = draw_samples(samples, lambda: (*b.random_point_coords(rng), *b.random_covector(rng), G.random_algebra(rng), b.random_tangent(rng)))
    phi = CotangentSample(b.point_at(base, fiber), phi_a, phi_b)
    g = G.exp(g)
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
    rep.add("quotient_orbit_invariance", worst(rquo), 1e-11 if b.kind == "TrivialProduct" else ALGEBRAIC_TOL)
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


def dual_atiyah_split(b: BundleSpec, base: Array) -> tuple[float, bool, dict]:
    """Exactness of 0 -> T*(P/G) -> T*P/G -> g* -> 0 at each base of a stack, from the matrices of a* and iota*.

    Returns the worst entry of iota* a*, whether a* is injective and iota*
    surjective at every base, and the ranks found (the smallest over the stack).
    """
    a_mat, i_mat = dual_atiyah_matrices(b, base)
    rank_a, rank_i = rank_gap(a_mat, 1e-10).rank, rank_gap(i_mat, 1e-10).rank
    split = bool(np.all(rank_a == b.d) and np.all(rank_i == b.n))
    return worst(np.abs(i_mat @ a_mat)), split, {"a_star": int(np.min(rank_a)), "iota_star": int(np.min(rank_i)), "fiber": a_mat.shape[-2]}


def dual_sequence_suite(b: BundleSpec, samples: int = 50, seed: int = 0) -> SuiteReport:
    """Fiberwise exactness of the dual Atiyah sequence and section identities."""
    rep = SuiteReport(f"bundle.dual_sequence[{b.name}]")
    rng = stream(seed, f"bundle.dual_sequence/{b.name}")
    base, rho, chi = draw_samples(samples, lambda: (b.random_base(rng), rng.standard_normal(b.d), b.group.random_coalgebra(rng)))
    composite, split, ranks = dual_atiyah_split(b, base)
    sec = b.sigma(base, chi)
    base2, chi2 = b.iota_star(sec)
    rep.add("iota_after_a_zero", composite, 1e-11)
    rep.flag("rank_split", split, fiber_dim=b.tangent_dim)
    rep.add("a_star_lands_in_J0", worst(row_norm(b.momentum(b.a_star(base, rho).rep))), 1e-11)
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
    # per sample: the base, rho, dbase and drho (drawn to keep the stream, the canonical form does not read it)
    base, rho, dbase, _ = draw_samples(samples, lambda: (b._random_base_coords(rng), *(rng.standard_normal(b.d) for _ in range(3))))
    base = b._base_at(base)

    # finite-difference tangent of the image curve in T*P coordinates
    h = fd.FINE_STEP
    bm, bp = b.base_move(base, dbase, -h), b.base_move(base, dbase, h)
    fd_base = fd.quotient(bm, bp, h) if b.kind == "TrivialProduct" else fd.group_velocity(b.base_group, bm, bp, h)
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
        box = schema.array("base_box", doc.get("base_box"), (None, 2))
        conn = ConnectionData.from_json(doc.get("connection", {}), box.shape[0], group.dim)
        b = BundleSpec("TrivialProduct", group, conn, base_box=box)
        # the highest power of a coordinate that the suites evaluate is the fourth, in the
        # Leibniz check of poisson.properties (a product of two quadratics)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(b.base_box).max(axis=1) ** 4).all():
                raise ValueError(f"'base_box' {b.base_box.tolist()} is too large: fourth powers of its coordinates overflow")
        if not conn.finite_on(b.base_box):
            raise ValueError(f"'connection' coefficients are too large on 'base_box' {b.base_box.tolist()}: A(m) is within {COEFFICIENT_HEADROOM:g} of overflow at its corners")
        return b
    base_group = group_resolver(doc.get("base_group"))
    conn = ConnectionData.from_json(doc.get("connection", {}), base_group.dim, group.dim)
    return BundleSpec(kind, group, conn, base_group=base_group)
