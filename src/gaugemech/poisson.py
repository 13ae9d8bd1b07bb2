"""Poisson brackets, coadjoint orbits, and the symplectic leaves of T*P/G.

Bracket conventions (fixed package-wide, matching the Lie-Poisson structure
{f,g}(mu) = <mu, [grad f, grad g]> on the coalgebra):

  canonical   {f,g} = sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i
  T*P         in trivialized coordinates (base m, fiber u, covector (a, b)):
              {f,g} = dm_f.da_g - dm_g.da_f + du_f.db_g - du_g.db_f
                      + <b, [grad_b g, grad_b f]>
              where du is the left-trivialized fiber derivative.  This is the
              canonical cotangent bracket of T*(M x G).
  quotient    T*P/G in the gauge-fixed class coordinates (m, a, bbar) is
              T*M x g*: the canonical bracket plus the Lie-Poisson bracket
              (cotangent bundle reduction).  ``dual_pair_check`` keeps the
              route through G-invariant lifts to T*P as a check.

Every ``PoissonSpace`` bivector is affine in the coordinates, B(x) = const +
linear.x, and one formula, {f,g} = grad f . B(x) . grad g, serves them all.

Every two-form (magnetic terms of leaves, isotropy of action graphs, the
semidirect momentum and leaf forms) is one matrix, ``canonical_two_form``:
d gamma of T*Q for a product Q of vector and group factors, left-trivialized,
<nu1, xi2> - <nu2, xi1> - <mu, [xi1, xi2]> (Abraham & Marsden, Foundations of
Mechanics, 1978).  Its oracle is d gamma by central differences (``fd``)
through the exp chart and ``dexp_left``: ``semidirect._product_dgamma_fd``,
run by ``omega_a_equals_dgamma_K``.  The bracket on T*((PxP)/G) is
``cotangent_bracket`` on T*P' for the trivial bundle P' = (M x M) x G.

Casimirs of a coalgebra (``casimir_fields``) and the rotation rule of
``coadjoint_transport`` follow from the structure constants and basis of the
group, never from its name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import fd
from .bundle import BundleSpec, ConnectionData, CotangentSample, Point, QuotientClass, draw_samples, row_dot, row_form, row_matvec, row_norm, row_vecmat
from .liealg import LieGroupSpec, rodrigues
from .report import SuiteReport, worst
from .rng import stream

Array = np.ndarray

JACOBI_TOL = 1e-6


class ChartError(ValueError):
    """Point outside the coordinate chart of a Poisson space."""


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    """A smooth function of coordinates, with optional exact gradient.

    Without one, ``gradient`` takes central differences at ``fd.GRAD_STEP``.

    ``batch_fn``, when attached, evaluates the field on every row of an
    (m, dim) float array at once and returns shape (m,). Its entry i must
    equal ``fn(rows[i])`` bit for bit, so a report or CSV does not depend on
    which of the two evaluated it.
    """

    fn: Callable[[Array], float]
    grad: Callable[[Array], Array] | None = None
    name: str = ""
    batch_fn: Callable[[Array], Array] | None = None

    def __call__(self, x: Array) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def gradient(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        return fd.central(self.fn, x, np.eye(x.size), fd.GRAD_STEP)

    def evaluate_rows(self, rows: Array) -> Array:
        """The field on each row of a float array: ``batch_fn`` if attached, else ``fn`` per row."""
        if self.batch_fn is not None:
            return np.asarray(self.batch_fn(rows), dtype=float)
        return np.array([self.fn(y) for y in rows], dtype=float)


def coordinate_field(i: int, dim: int) -> ScalarField:
    e = np.zeros(dim)
    e[i] = 1.0
    return ScalarField(lambda x, i=i: float(x[i]), lambda x, e=e: e.copy(), name=f"x{i}", batch_fn=lambda rows, i=i: rows[:, i].copy())


@dataclass(frozen=True)
class Polynomial:
    """c0 + c1.x + x.c2.x + c3.x^3 (cube taken entrywise), with its exact gradient.

    The coefficients may carry leading stack axes, one polynomial per row (as
    ``bundle.draw_samples`` stacks them); they broadcast against the leading
    axes of the points, and each row has the bits of its one-polynomial call.
    """

    c0: float | Array
    c1: Array
    c2: Array
    c3: Array

    def __call__(self, x: Array) -> float | Array:
        x_c2 = (x[..., None, :] @ self.c2)[..., 0, :]  # x @ c2 per row
        return self.c0 + np.vecdot(self.c1, x) + np.vecdot(x_c2, x) + np.vecdot(self.c3, x**3)

    def gradient(self, x: Array) -> Array:
        return self.c1 + 2.0 * (self.c2 @ x[..., None])[..., 0] + 3.0 * self.c3 * x**2


def random_polynomial(rng: np.random.Generator, dim: int, degree: int = 2) -> Polynomial:
    """Random polynomial with bounded coefficients: a symmetric c2, zero below degree 2, and c3 drawn only for degree 3.

    One polynomial, the batch of one: ``bundle.draw_samples`` over repeated
    calls stacks their coefficients, and consumes the stream as the calls do.
    """
    c0 = float(rng.normal())
    c1 = rng.normal(size=dim)
    c2 = rng.normal(size=(dim, dim)) * (1.0 / max(1, dim))
    c2 = 0.5 * (c2 + c2.T) if degree >= 2 else np.zeros((dim, dim))
    c3 = rng.normal(size=dim) * (1.0 / max(1, dim)) if degree >= 3 else np.zeros(dim)
    return Polynomial(c0, c1, c2, c3)


# ---------------------------------------------------------------------------
# the canonical bracket on T*P in trivialized coordinates
# ---------------------------------------------------------------------------


@dataclass
class CotangentFn:
    """Function on T*P with optional exact block gradients (dm, du, da, db).

    Exact gradients may take a stack of samples and give one row per sample.
    """

    fn: Callable[[CotangentSample], float]
    grads: Callable[[CotangentSample], tuple[Array, Array, Array, Array]] | None = None


def cotangent_grads(bundle: BundleSpec, F: CotangentFn, s: CotangentSample) -> tuple[Array, Array, Array, Array]:
    """Block gradients (dm, du, da, db), one row per sample of a stack: exact when F has them, else central differences.

    The base and fiber blocks differentiate along exp-chart coordinates of
    the moves ``base_move`` and u -> u exp(t), so du is left-trivialized.
    Central differences displace every sample of a stack at once when
    ``F.fn`` takes stacks, so each row has the bits of its one-sample call.
    """
    if F.grads is not None:
        return F.grads(s)
    p, a, b = s.point, s.a, s.b
    eye_d, eye_n, h = np.eye(bundle.d), np.eye(bundle.n), fd.GRAD_STEP
    blocks = (
        fd.central(lambda t: F.fn(CotangentSample(Point(bundle.base_move(p.base, t), p.fiber), a, b)), np.zeros(bundle.d), eye_d, h),
        fd.central(lambda t: F.fn(CotangentSample(Point(p.base, p.fiber @ bundle.group.exp(t)), a, b)), np.zeros(bundle.n), eye_n, h),
        fd.central(lambda x: F.fn(CotangentSample(p, x, b)), a, eye_d, h),
        fd.central(lambda x: F.fn(CotangentSample(p, a, x)), b, eye_n, h),
    )
    # central gives one row per direction; the bracket takes one contiguous row per sample
    return tuple(np.moveaxis(block, 0, -1).copy() for block in blocks)


def cotangent_bracket(bundle: BundleSpec, F: CotangentFn, G: CotangentFn, s: CotangentSample) -> float | Array:
    """Canonical Poisson bracket of T*P in the trivialization-induced frame.

    At one sample, or per sample of a stack when F and G take stacks; each
    row has the bits of its one-sample call.
    """
    dmF, duF, daF, dbF = cotangent_grads(bundle, F, s)
    dmG, duG, daG, dbG = cotangent_grads(bundle, G, s)
    lie = bundle.group.bracket(dbG, dbF)
    out = row_dot(dmF, daG) - row_dot(dmG, daF) + row_dot(duF, dbG) - row_dot(duG, dbF) + row_dot(s.b, lie)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Poisson spaces
# ---------------------------------------------------------------------------


@dataclass
class PoissonSpace:
    """A Poisson manifold in coordinates where its bivector is affine.

    B_ij(x) = {x_i, x_j}(x) = const_ij + sum_k linear_ijk x_k.  ``const`` is
    None when the constant part vanishes; ``box`` (shape (k, 2)) bounds the
    first k coordinates of the chart and is None for all of R^dim.
    """

    kind: str  # canonical | lie_poisson | quotient | product
    linear: Array
    const: Array | None = None
    box: Array | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("canonical", "lie_poisson", "quotient", "product"):
            raise ValueError(f"unknown Poisson space kind {self.kind!r}")
        if not self.name:
            self.name = self.kind

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    def check_chart(self, x: Array) -> None:
        """ChartError unless x is a finite point of the chart, or a stack (..., dim) of them."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,) or not np.all(np.isfinite(x)):
            raise ChartError(f"point of shape {x.shape} invalid for {self.name} (dim {self.dim})")
        if self.box is not None:
            k = self.box.shape[0]
            if np.any(x[..., :k] < self.box[:, 0] - 1e-9) or np.any(x[..., :k] > self.box[:, 1] + 1e-9):
                raise ChartError(f"point outside the chart box of {self.name}")

    def bracket(self, f: ScalarField | Polynomial, g: ScalarField | Polynomial, x: Array) -> float | Array:
        """{f, g}(x) = grad f . B(x) . grad g, at a point or per point of a stack (..., dim).

        ``f`` and ``g`` need only a ``gradient`` that takes the same points (a
        ``ScalarField``, a ``Polynomial``); each row has the bits of its
        one-point call.
        """
        self.check_chart(x)
        x = np.asarray(x, dtype=float)
        # (grad f . B) . grad g, with grad f . B as B^T grad f: the association of the one-point product
        out = row_dot(row_matvec(np.swapaxes(self.bivector(x), -1, -2), f.gradient(x)), g.gradient(x))
        return float(out) if np.ndim(out) == 0 else out

    def bivector(self, x: Array) -> Array:
        """Matrix B_ij = {x_i, x_j} at the point, or one per point of a stack (..., dim)."""
        b = row_matvec(self.linear, np.asarray(x, dtype=float)[..., None, :])
        return b if self.const is None else b + self.const


def canonical_cotangent(nq: int, name: str = "") -> PoissonSpace:
    """T*R^nq in coordinates (q, p): the constant bivector J."""
    const = np.zeros((2 * nq, 2 * nq))
    const[:nq, nq:] = np.eye(nq)
    const[nq:, :nq] = -np.eye(nq)
    return PoissonSpace("canonical", np.zeros((2 * nq,) * 3), const, name=name or f"T*R{nq}")


def lie_poisson(group: LieGroupSpec, name: str = "") -> PoissonSpace:
    """g* with {f,g}(mu) = <mu, [grad f, grad g]>: the structure constants are the linear part."""
    return PoissonSpace("lie_poisson", group.structure, name=name or f"{group.name}*")


def product_space(factors: Sequence[PoissonSpace], name: str = "") -> PoissonSpace:
    """Block-diagonal product; only the leading factor may carry a chart box."""
    facs = tuple(factors)
    if any(f.box is not None for f in facs[1:]):
        raise ValueError("only the leading factor of a product may carry a chart box")
    dim = sum(f.dim for f in facs)
    linear = np.zeros((dim, dim, dim))
    const = np.zeros((dim, dim))
    off = 0
    for f in facs:
        sl = slice(off, off + f.dim)
        linear[sl, sl, sl] = f.linear
        if f.const is not None:
            const[sl, sl] = f.const
        off += f.dim
    return PoissonSpace("product", linear, const, facs[0].box if facs else None, name or "x".join(f.name for f in facs))


def quotient_cotangent(bundle: BundleSpec, name: str = "") -> PoissonSpace:
    """T*P/G in the class coordinates (m, a, bbar): T*M x g*, chart box on m."""
    if bundle.kind != "TrivialProduct":
        raise ValueError("quotient coordinates require a TrivialProduct bundle chart")
    space = product_space([canonical_cotangent(bundle.d), lie_poisson(bundle.group)])
    return replace(space, kind="quotient", box=bundle.base_box, name=name or f"T*P/G[{bundle.name}]")


def invariant_lift(bundle: BundleSpec, f: ScalarField | Polynomial) -> CotangentFn:
    """The G-invariant function f o class_coords on T*P.

    Block gradients are exact, at a sample or per sample of a stack, unless f
    is a ``ScalarField`` without an exact gradient; then they come from
    ``cotangent_grads``' central differences, at one sample as ``f`` takes one.
    """
    d = bundle.d

    def fn(s: CotangentSample) -> float:
        return f(bundle.class_coords(s))

    if isinstance(f, ScalarField) and f.grad is None:
        return CotangentFn(fn)

    def grads(s: CotangentSample):
        m_u = bundle.group.Ad_star_inv(s.point.fiber)
        x = np.concatenate([s.point.base, s.a, row_matvec(m_u, s.b)], axis=-1)
        g = f.gradient(x)
        gm, ga, gb = g[..., :d], g[..., d : 2 * d], g[..., 2 * d :]
        return gm, bundle.group.coadjoint_chain_rule(m_u, gb, s.b), ga, row_matvec(np.swapaxes(m_u, -1, -2), gb)

    return CotangentFn(fn, grads)


# ---------------------------------------------------------------------------
# verification: antisymmetry/Leibniz, Jacobi, dual pair
# ---------------------------------------------------------------------------


def bracket_property_suite(space: PoissonSpace, trials: int = 200, seed: int = 0) -> SuiteReport:
    """Antisymmetry and the Leibniz rule on seeded random function triples, evaluated once over the stacked trials."""
    rep = SuiteReport(f"poisson.bracket_properties[{space.name}]")
    rng = stream(seed, f"poisson.properties/{space.name}")
    x, f, g, k = draw_samples(trials, lambda: (_sample_point(space, rng), *(random_polynomial(rng, space.dim) for _ in range(3))))
    anti = space.bracket(f, g, x) + space.bracket(g, f, x)
    prod = ScalarField(lambda y: f(y) * g(y), lambda y: f.gradient(y) * g(y)[..., None] + f(y)[..., None] * g.gradient(y))
    leib = space.bracket(prod, k, x) - (f(x) * space.bracket(g, k, x) + g(x) * space.bracket(f, k, x))
    rep.add("antisymmetry", worst(np.abs(anti)), 1e-12)
    rep.add("leibniz", worst(np.abs(leib)), 1e-8)
    rep.extras["trials"] = trials
    return rep


def _sample_point(space: PoissonSpace, rng: np.random.Generator) -> Array:
    """Uniform on the inner part of the chart box, as BundleSpec.random_base draws; normal elsewhere."""
    if space.box is None:
        return rng.standard_normal(space.dim)
    lo, hi = space.box[:, 0], space.box[:, 1]
    return np.concatenate([lo + (hi - lo) * rng.uniform(0.1, 0.9, size=lo.size), rng.standard_normal(space.dim - lo.size)])


def jacobi_check(space: PoissonSpace, trials: int = 20, seed: int = 0, degree: int = 2) -> float:
    """Max cyclic-sum residual over random polynomial triples.

    The nested brackets are differentiated by central differences at the
    coarser ``fd.NESTED_STEP``, so the result is finite-difference dominated.
    Each displaced point of a nested bracket is one stack over the trials.
    """
    rng = stream(seed, f"poisson.jacobi/{space.name}")
    x, f, g, k = draw_samples(trials, lambda: (_sample_point(space, rng), *(random_polynomial(rng, space.dim, degree) for _ in range(3))))
    eye = np.eye(space.dim)

    def nest(a: Polynomial, b: Polynomial) -> ScalarField:
        def value(y: Array) -> Array:
            return space.bracket(a, b, y)

        # central gives one row per direction, (dim, trials); the bracket takes one contiguous row per trial
        return ScalarField(value, lambda y: fd.central(value, y, eye, fd.NESTED_STEP).T.copy())

    total = space.bracket(f, nest(g, k), x) + space.bracket(g, nest(k, f), x) + space.bracket(k, nest(f, g), x)
    return worst(np.abs(total))


def _on_momentum(h: ScalarField | Polynomial) -> CotangentFn:
    """h o J on T*P: J reads the fiber covector b, so only the b block of the gradient is nonzero."""
    return CotangentFn(lambda s: h(s.b), lambda s: (np.zeros_like(s.a), np.zeros_like(s.b), np.zeros_like(s.a), h.gradient(s.b)))


def dual_pair_check(bundle: BundleSpec, trials: int = 100, seed: int = 0, tol: float = 1e-7) -> SuiteReport:
    """Polarity of the dual pair, {f o pi_G, h o J} = 0 on T*P, and the quotient bracket.

    ``quotient_matches_lift`` compares the closed-form bracket of T*P/G with
    the T*P bracket of invariant lifts at samples in an arbitrary gauge.
    Each stream is drawn in one loop; each bracket is evaluated once over the
    stacked samples.
    """
    rep = SuiteReport(f"poisson.dual_pair[{bundle.name}]")
    quot = quotient_cotangent(bundle)
    cas = casimir_fields(bundle.group)

    rng = stream(seed, f"poisson.dual_pair/{bundle.name}")
    # per trial: the covector's point and components, f on T*P/G, h and (with a Casimir) h2 on g*
    base, fiber, a, b, f, h, *h2 = draw_samples(trials, lambda: (
        *bundle.random_point_coords(rng), *bundle.random_covector(rng), random_polynomial(rng, quot.dim), random_polynomial(rng, bundle.n),
        *((random_polynomial(rng, bundle.n),) if cas else ())))
    s = CotangentSample(bundle.point_at(base, fiber), a, b)
    F = invariant_lift(bundle, f)
    w_pol = worst(np.abs(cotangent_bracket(bundle, F, _on_momentum(h), s)))
    if cas:
        # a Casimir of the coalgebra Poisson-commutes with other J-pullbacks too
        C = _on_momentum(cas[0])
        w_cas = worst(np.abs(cotangent_bracket(bundle, C, _on_momentum(h2[0]), s)), np.abs(cotangent_bracket(bundle, F, C, s)))

    rng = stream(seed, f"poisson.dual_pair.lift/{bundle.name}")
    base, fiber, a, b, f, g = draw_samples(trials, lambda: (
        *bundle.random_point_coords(rng), *bundle.random_covector(rng), random_polynomial(rng, quot.dim), random_polynomial(rng, quot.dim)))
    s = CotangentSample(bundle.point_at(base, fiber), a, b)
    lifted = cotangent_bracket(bundle, invariant_lift(bundle, f), invariant_lift(bundle, g), s)
    w_lift = worst(np.abs(quot.bracket(f, g, bundle.class_coords(s)) - lifted))
    rep.add("polarity", w_pol, tol)
    if cas:
        rep.add("casimir_commutes", w_cas, tol)
    rep.add("quotient_matches_lift", w_lift, 1e-9)
    rep.extras["trials"] = trials
    return rep


# ---------------------------------------------------------------------------
# coadjoint orbits
# ---------------------------------------------------------------------------


def casimir_fields(group: LieGroupSpec) -> list[ScalarField]:
    """Linear, then quadratic, Casimirs of the Lie-Poisson structure on g*.

    The coefficients come from ``group.casimirs``, derived once per spec from
    the structure constants.  Gradients take a point or a stack of points.
    """
    linear, quadratic = group.casimirs
    fields = [ScalarField(lambda mu, x=x: float(x @ mu), lambda mu, x=x: np.broadcast_to(x, np.shape(mu)).copy(), name=f"linear{i}",
                          batch_fn=lambda rows, x=x: row_dot(rows, x)) for i, x in enumerate(linear)]
    fields += [ScalarField(lambda mu, q=q: float(mu @ q @ mu), lambda mu, q=q: 2.0 * row_matvec(q, mu), name=f"quadratic{i}",
                           batch_fn=lambda rows, q=q: row_dot(row_vecmat(rows, q), rows)) for i, q in enumerate(quadratic)]
    return fields


@dataclass
class CoadjointOrbit:
    """Orbit of the coadjoint action through mu0, with sampled points."""

    group: LieGroupSpec
    mu0: Array
    samples: list[Array] = field(default_factory=list)
    dim: int = 0

    def tangent_span(self, mu: Array) -> Array:
        """Columns ad*_{e_i} mu spanning the orbit tangent space at mu."""
        n = self.group.dim
        return np.stack([self.group.ad_star(np.eye(n)[i]) @ mu for i in range(n)], axis=1)

    def membership_residual(self, mu: Array) -> float | Array:
        """Distance of mu from the orbit, or of each row of a stack (..., dim).

        The worst change of a Casimir when the group has Casimirs, else the
        distance to the nearest of mu0 and the samples.
        """
        mu = np.asarray(mu, dtype=float)
        rows = mu.reshape(-1, self.group.dim)
        cas = casimir_fields(self.group)
        if cas:
            res = np.max([np.abs(c.evaluate_rows(rows) - c(self.mu0)) for c in cas], axis=0)
        else:
            res = np.min(row_norm(rows[:, None, :] - np.array([self.mu0, *self.samples])), axis=1)
        return float(res[0]) if mu.ndim == 1 else res.reshape(mu.shape[:-1])


def coadjoint_orbit(group: LieGroupSpec, mu0: Array, n_samples: int = 40, seed: int = 0) -> CoadjointOrbit:
    """The orbit through mu0 with n_samples points Ad*_{g^-1} mu0, the g drawn in one loop and exponentiated as one stack."""
    mu0 = np.asarray(mu0, dtype=float)
    rng = stream(seed, f"poisson.orbit/{group.name}")
    g = np.array([group.random_algebra(rng, scale=0.8) for _ in range(n_samples)]).reshape(n_samples, group.dim)
    orbit = CoadjointOrbit(group, mu0, list(row_matvec(group.Ad_star_inv(group.exp(g)), mu0)))
    span = orbit.tangent_span(mu0)
    svals = np.linalg.svd(span, compute_uv=False)
    cut = 1e-8 * max(svals[0], 1.0)
    orbit.dim = int(np.sum(svals > cut))
    return orbit


def _acts_by_rotation(group: LieGroupSpec) -> bool:
    """Whether Ad*_{w^-1} mu = w mu, so that the coadjoint orbits are spheres.

    Holds when the 3x3 basis matrices are antisymmetric and basis[i] equals
    -ad*_{e_i} (whose matrix is structure[i]): the embedding is then the
    contragredient of Ad, and the group is SO(3).
    """
    return (group.dim == group.embed == 3
            and np.allclose(group.basis, -np.transpose(group.basis, (0, 2, 1)))
            and np.allclose(group.basis, -group.structure))


def coadjoint_transport(group: LieGroupSpec, mu_from: Array, mu_to: Array) -> Array:
    """A group element w with Ad*_{w^-1} mu_from = mu_to (orbit alignment), or one per row of stacks (..., dim).

    For a group acting by rotation, w turns mu_from onto mu_to about their
    cross product (Rodrigues); antipodal rows turn by pi (1 - 1e-12) about an
    axis orthogonal to mu_from, and zero or aligned rows get the identity.
    Raises ValueError when any row pairs points of distinct orbits.
    """
    mu_from = np.asarray(mu_from, dtype=float)
    mu_to = np.asarray(mu_to, dtype=float)
    lead = np.broadcast_shapes(mu_from.shape, mu_to.shape)[:-1]
    if np.allclose(group.structure, 0.0):
        if np.any(row_norm(mu_from - mu_to) > 1e-9):
            raise ValueError("points on distinct orbits of an abelian group")
        return np.broadcast_to(group.identity(), lead + (group.embed,) * 2).copy()
    if not _acts_by_rotation(group):
        raise NotImplementedError(f"no coadjoint transport rule for group {group.name!r}")
    a, b = (np.broadcast_to(mu, lead + (3,)).reshape(-1, 3) for mu in (mu_from, mu_to))
    na, nb = row_norm(a), row_norm(b)
    if np.any(np.abs(na - nb) > 1e-8 * np.maximum(1.0, na)):
        raise ValueError(f"points on distinct {group.name}* orbits")
    axis = np.cross(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero rows are the identity below
        s = row_norm(axis) / (na * nb)
        c = row_dot(a, b) / (na * nb)
        angle = np.arctan2(s, c)
        unit = axis / row_norm(axis)[:, None]
    zero = na < 1e-14
    flip = ~zero & (s < 1e-12) & ~(c > 0)
    turn = ~zero & ~(s < 1e-12)
    if flip.any():  # antipodal: rotate by pi around any axis orthogonal to a
        af = a[flip]
        perp = np.eye(3)[np.argmin(np.abs(af), axis=1)]
        perp = perp - (row_dot(perp, af) / (na[flip] * na[flip]))[:, None] * af
        unit[flip] = perp / row_norm(perp)[:, None]
        angle[flip] = np.pi * (1 - 1e-12)
    # Rodrigues of angle * [unit]x per row; exp(0) = I on the rows that need no turn
    k = np.zeros((len(a), 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -unit[:, 2], unit[:, 1], -unit[:, 0]
    k[:, 1, 0], k[:, 2, 0], k[:, 2, 1] = unit[:, 2], -unit[:, 1], unit[:, 0]
    k *= angle[:, None, None]
    k[~(turn | flip)] = 0.0
    return rodrigues(k).reshape(lead + (3, 3))


# ---------------------------------------------------------------------------
# symplectic two-forms in trivialized coordinates
# ---------------------------------------------------------------------------


def dexp_left(group: LieGroupSpec, xi: Array, dxi: Array, terms: int = 24) -> Array:
    """Left-trivialized velocity of t -> exp(xi + t dxi) at t = 0, per row of stacks (..., dim).

    The standard series sum_k (-ad_xi)^k / (k+1)! applied to dxi; a row stops
    at its first term that is exactly zero, after which every term vanishes
    (ad_xi nilpotent on dxi, as for abelian and Heisenberg algebras).  Rows
    that stopped keep their sum, so each row has the bits of its single call.
    """
    acc = np.array(dxi, dtype=float)
    out = acc.copy()
    neg_ad = -group.ad(xi)
    fact = 1.0
    for k in range(1, terms):
        acc = row_matvec(neg_ad, acc)
        live = acc.any(axis=-1)
        if not live.any():
            break
        fact *= k + 1
        out = np.where(live[..., None], out + acc / fact, out)
    return out


def canonical_two_form(factors: Sequence[int | LieGroupSpec], covector: Array) -> Array:
    """Matrix of d gamma on T*Q, Q a product of vector (given by dimension) and group factors, or one per covector of a stack.

    Left-trivialized tangents are laid out (velocities xi | covector changes nu)
    and covector holds mu; v1 . Omega . v2 = <nu1, xi2> - <nu2, xi1> - <mu, [xi1, xi2]>,
    so Omega = [[-S, -I], [I, 0]] with S block-diagonal: structure @ mu on each
    group factor, 0 on each vector factor.
    """
    mu = np.asarray(covector, dtype=float)
    dim = mu.shape[-1]
    out = np.zeros(mu.shape[:-1] + (2 * dim, 2 * dim))
    off = 0
    for f in factors:
        if isinstance(f, LieGroupSpec):
            # structure @ mu on the factor's coordinates, one matrix-vector product per structure row and covector
            out[..., off : off + f.dim, off : off + f.dim] = -(f.structure @ mu[..., None, off : off + f.dim, None])[..., 0]
            off += f.dim
        else:
            off += f
    if off != dim:
        raise ValueError(f"factors of total dimension {off} do not match a covector of size {dim}")
    eye = np.eye(dim)
    out[..., :dim, dim:] = -eye
    out[..., dim:, :dim] = eye
    return out


# ---------------------------------------------------------------------------
# symplectic leaves of T*P/G
# ---------------------------------------------------------------------------


def leaf_structure(bundle: BundleSpec, orbit: CoadjointOrbit, samples: int = 25, seed: int = 0,
                   tol_affine: float = 1e-10, membership_tol: float = 1e-8) -> SuiteReport:
    """Membership, dimension, affine fibration, and section checks for J^{-1}(O)/G.

    The stream is drawn in one loop; each check is evaluated once over the
    stacked samples.
    """
    rep = SuiteReport(f"poisson.leaf[{bundle.name}|orbit({orbit.group.name})]")
    rng = stream(seed, f"poisson.leaf/{bundle.name}")
    d, n = bundle.d, bundle.n
    G = bundle.group

    # per sample: g (orbit point), the on-orbit covector phi and a generic one (point, components), rho2, a gauge element and rho_target
    g, base, fiber, a, b, off_base, off_fiber, off_a, off_b, rho2, gauge, rho_target = draw_samples(samples, lambda: (
        G.random_algebra(rng, 0.8), *bundle.random_point_coords(rng), *bundle.random_covector(rng),
        *bundle.random_point_coords(rng), *bundle.random_covector(rng), rng.standard_normal(d), G.random_algebra(rng), rng.standard_normal(d)))
    g, fiber, off_fiber, gauge = G.exp(np.stack([g, fiber, off_fiber, gauge]))
    # on-orbit sample upstairs, arbitrary gauge
    chi = row_matvec(G.Ad_star_inv(g), orbit.mu0)
    phi = CotangentSample(Point(base, fiber), a, row_matvec(G.Ad_star(fiber), chi))
    off = CotangentSample(Point(off_base, off_fiber), off_a, off_b)  # generic covector: off the orbit unless G is abelian

    # (a) membership equivalence: J-side vs iota*-side verdicts, on the generic covectors only where they are off the orbit
    def residuals(s: CotangentSample) -> tuple[Array, Array]:
        return orbit.membership_residual(bundle.momentum(s)), orbit.membership_residual(bundle.iota_star(bundle.quotient_rep(s))[1])

    (j_on, i_on), (j_off, i_off) = residuals(phi), residuals(off)
    # an off-orbit row (J residual above 10 tol) fails when iota* puts it on the orbit
    on_agree = worst(j_on, i_on) <= membership_tol
    off_agree = not np.min(i_off, where=j_off > 10 * membership_tol, initial=np.inf) <= membership_tol
    w_member = 0.0 if on_agree and off_agree else 1.0

    # (b) leaf dimension: rank of the tangent span of the parametrization
    # (m, rho, orbit direction) -> a*(rho) + sigma(m, transported chi)
    x0 = bundle.class_coords(phi)
    m0, chi0 = x0[:, :d], x0[:, 2 * d :]

    def embed(z: Array) -> Array:
        mm, rho, svec = z[:, :d], z[:, d : 2 * d], z[:, 2 * d :]
        chi_s = row_matvec(G.Ad_star(G.exp(-svec)), chi0)
        return np.concatenate([mm, bundle.sigma(mm, chi_s).rep.a + rho, chi_s], axis=1)

    z0 = np.concatenate([m0, np.zeros((samples, d + n))], axis=1)
    span = np.moveaxis(fd.central(embed, z0, np.eye(2 * d + n), fd.FINE_STEP), 0, -1)  # (samples, coordinates, directions)
    svals = np.linalg.svd(span, compute_uv=False)
    leaf_dims = np.sum(svals > 1e-6 * np.maximum(svals[:, :1], 1.0), axis=1)

    # (c) the affine action is free and transitive on iota*-fibers
    cls2 = np.concatenate([x0[:, :d], x0[:, d : 2 * d] + rho2, x0[:, 2 * d :]], axis=1)
    recon = bundle.a_star(x0[:, :d], cls2[:, d : 2 * d] - x0[:, d : 2 * d])
    moved = np.concatenate([x0[:, :d], x0[:, d : 2 * d] + recon.rep.a, x0[:, 2 * d :] + recon.rep.b], axis=1)
    w_aff = worst(row_norm(moved - cls2))

    # (d) pi_sigma: gauge-choice independence and constructive surjectivity
    def pi_sigma(cls: Array) -> Array:
        return cls[:, d : 2 * d] - bundle.sigma(cls[:, :d], cls[:, 2 * d :]).rep.a

    w_pis = worst(row_norm(pi_sigma(x0) - pi_sigma(bundle.class_coords(bundle.cot_act(phi, gauge)))))
    # preimage of a random rho: sigma(m, chi) + a*(rho) maps back to rho
    sec = bundle.sigma(m0, chi0)
    preimage = QuotientClass(CotangentSample(sec.rep.point, sec.rep.a + rho_target, sec.rep.b))
    w_surj = worst(row_norm(bundle.sigma_tilde(preimage) - rho_target))

    dims = set(leaf_dims.tolist())
    rep.add("membership_equivalence", w_member, 0.5)
    rep.add("leaf_dimension", 0.0 if dims == {2 * d + orbit.dim} else 1.0, 0.5, expected=2 * d + orbit.dim, got=sorted(dims))
    rep.add("affine_transitivity", w_aff, tol_affine)
    rep.add("pi_sigma_well_defined", w_pis, 1e-9)
    rep.add("pi_sigma_surjective", w_surj, 1e-11)
    rep.extras["orbit_dim"] = orbit.dim
    rep.extras["leaf_dim"] = 2 * d + orbit.dim
    rep.extras["membership_trials"] = samples
    rep.extras["affine_transitivity_residual"] = w_aff
    return rep


def magnetic_term(bundle: BundleSpec, chi: Array, samples: int = 15, seed: int = 0):
    """Two-form evaluator for omega_chi - pi_sigma* d(gamma~) plus its report.

    Requires a one-point coadjoint orbit (chi fixed by Ad*).  The leaf form
    omega_chi is d gamma (``canonical_two_form``) on tangents pushed through
    the leaf embedding by central differences at the gauge slice; pi_sigma
    maps the leaf to T*(P/G) through the connection-induced section.  The
    evaluator takes one point and tangent pair or stacks of them; the report
    evaluates each check once over the stacked samples.
    """
    chi = np.asarray(chi, dtype=float)
    G = bundle.group
    span = np.stack([G.ad_star(np.eye(G.dim)[i]) @ chi for i in range(G.dim)], axis=1)
    if float(np.max(np.abs(span))) > 1e-10:
        raise ValueError("magnetic term needs a one-point orbit (chi must be a character)")
    d, n = bundle.d, bundle.n

    def leaf_coords(z: Array) -> Array:
        """(m, a) of the leaf point over z = (m, rho): the inverse of pi_sigma, a = rho + sigma-part."""
        m = z[..., :d]
        return np.concatenate([m, z[..., d:] + bundle.sigma(m, chi).rep.a], axis=-1)

    def two_form(m: Array, rho: Array, t1: Array, t2: Array) -> float | Array:
        """Evaluate on tangents (dm, drho) of T*(P/G) at (m, rho), or per row of stacks."""
        z = np.concatenate([m, rho], axis=-1)
        # pushforward through the leaf embedding, by central differences;
        # it has no fiber (u, b) components
        pushed = fd.central(leaf_coords, z, np.stack([t1, t2]), fd.GRAD_STEP)
        zero = np.zeros(pushed.shape[:-1] + (n,))
        p1, p2 = np.concatenate([pushed[..., :d], zero, pushed[..., d:], zero], axis=-1)
        a = leaf_coords(z)[..., d:]
        covector = np.concatenate([a, np.broadcast_to(chi, a.shape[:-1] + chi.shape)], axis=-1)
        # canonical d(gamma~) of T*(P/G) on the flat chart
        return row_form(p1, canonical_two_form([d, G], covector), p2) - row_form(t1, canonical_two_form([d], rho), t2)

    rep = SuiteReport(f"poisson.magnetic[{bundle.name}]")
    rng = stream(seed, f"poisson.magnetic/{bundle.name}")
    flat = not any(any(monos for monos in per_base) for per_base in bundle.connection.terms)

    def draw() -> tuple:
        # the point (m, rho), the tangents t1, t2 and the fiber part of fib, then (d >= 2) the closedness triple
        out = (bundle.random_base(rng), rng.standard_normal(d), rng.standard_normal(2 * d), rng.standard_normal(2 * d), rng.standard_normal(d))
        if d < 2:
            return out
        # base coordinate directions, padded with fiber (rho) directions d + j
        idx = rng.choice(d, size=min(3, d), replace=False)
        return *out, np.concatenate([idx, np.array([d + rng.integers(d) for _ in range(3 - idx.size)], dtype=int)])

    m, rho, t1, t2, fib, *triple = draw_samples(samples, draw)
    val = two_form(m, rho, t1, t2)
    # oracle: the chi-component of the curvature two-form of A
    f2 = np.einsum("...ijk,k->...ij", bundle.connection.curvature_two_form(bundle.base_coords_for_connection(m)), chi)
    w_match = worst(np.abs(val - row_form(t1[:, :d], f2, t2[:, :d])))

    # basic: vanishes when either argument is a pure fiber direction
    w_basic = worst(np.abs(two_form(m, rho, np.concatenate([np.zeros((samples, d)), fib], axis=1), t2)))

    # closedness: finite-difference exterior derivative on coordinate triples
    # (coordinate directions commute, so the cyclic-derivative formula applies)
    w_closed = 0.0
    if triple:
        e = np.moveaxis(np.eye(2 * d)[triple[0]], 1, 0)  # (3, samples, 2d)
        z = np.concatenate([m, rho], axis=1)
        dval = 0.0
        for a_, b_, c_ in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            dval += fd.central(lambda zz: two_form(zz[:, :d], zz[:, d:], e[b_], e[c_]), z, e[a_][None], fd.CLOSED_STEP)[0]
        w_closed = worst(np.abs(dval))
    if flat or float(np.linalg.norm(chi)) == 0.0:
        rep.add("flat_or_zero_chi_vanishes", w_match, 1e-9)
    rep.add("matches_curvature_oracle", w_match, 1e-7)
    rep.add("closed", w_closed, 1e-6)
    rep.add("basic_on_fiber_directions", w_basic, 1e-9)
    rep.extras["trials"] = samples
    rep.extras["magnetic_closedness_residual"] = w_closed
    return two_form, rep


# ---------------------------------------------------------------------------
# the symplectic groupoid T*((PxP)/G) => T*P/G acting on leaves
# ---------------------------------------------------------------------------


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

    The stream is drawn in one loop; each check is evaluated once over the
    stacked samples.
    """
    rep = SuiteReport(f"poisson.groupoid_action[{bundle.name}]")
    rng = stream(seed, f"poisson.groupoid_action/{bundle.name}")
    quot = quotient_cotangent(bundle)
    G = bundle.group
    d, n = bundle.d, bundle.n

    # T*Gamma = T*((PxP)/G) is T*P' for the trivial bundle P' = (M x M) x G,
    # in gauge coordinates (m1, m2; w) with fiber covectors (b1, b2) = (beta, -beta)
    arrows = BundleSpec("TrivialProduct", G, ConnectionData.flat(2 * d, n), np.vstack([bundle.base_box] * 2))
    pair_t = partial(_pair_t, bundle)

    def on_arrows(f: Polynomial, leg) -> CotangentFn:
        def fn(s: CotangentSample) -> Array:
            base = s.point.base
            return f(leg(PairClassPoint(base[..., :d], s.point.fiber, base[..., d:], s.a[..., :d], s.b, s.a[..., d:], -s.b)))
        return CotangentFn(fn)

    def draw() -> tuple:
        # a random arrow lam of T*Gamma (b2 = -b1 = -beta), f and g on T*P/G, two leaf points to connect, the graph-isotropy draws
        beta = rng.standard_normal(n)
        lam = bundle.random_base(rng), G.random_algebra(rng), bundle.random_base(rng), rng.standard_normal(d), rng.standard_normal(d)
        fg = random_polynomial(rng, quot.dim), random_polynomial(rng, quot.dim)
        g12 = G.random_algebra(rng, 0.8), G.random_algebra(rng, 0.8)
        ends = bundle.random_base(rng), rng.standard_normal(d), bundle.random_base(rng), rng.standard_normal(d)
        return beta, *lam, *fg, *g12, *ends, *_isotropy_draw(bundle, orbit, rng)

    (beta, m1, w, m2, a1, a2, f, g, g1, g2, from_m, from_a, to_m, to_a,
     bsum, b1, y_m1, y_w, y_m2, y_a1, y_a2, m1_0, w_0, a1_0, span, pairs) = draw_samples(samples, draw)
    w, g1, g2, y_w, w_0 = G.exp(np.stack([w, g1, g2, y_w, w_0]))

    lam = PairClassPoint(m1, w, m2, a1, beta, a2, -beta)
    s = CotangentSample(Point(np.concatenate([m1, m2], axis=1), w), np.concatenate([a1, a2], axis=1), beta)
    lhs = cotangent_bracket(arrows, on_arrows(f, pair_t), on_arrows(g, pair_t), s)
    w_t = worst(np.abs(lhs - quot.bracket(f, g, pair_t(lam))))
    lhs = cotangent_bracket(arrows, on_arrows(f, _pair_s), on_arrows(g, _pair_s), s)
    w_s = worst(np.abs(lhs + quot.bracket(f, g, _pair_s(lam))))

    # orbit connectivity: any two leaf points of J^{-1}(O)/G are joined by an arrow
    z_from = np.concatenate([from_m, from_a, row_matvec(G.Ad_star_inv(g1), orbit.mu0)], axis=1)
    z_to = np.concatenate([to_m, to_a, row_matvec(G.Ad_star_inv(g2), orbit.mu0)], axis=1)
    try:
        w_el = coadjoint_transport(G, z_from[:, 2 * d :], z_to[:, 2 * d :])
    except NotImplementedError:
        w_el = None
    if w_el is not None:
        arrow = PairClassPoint(z_to[:, :d], w_el, z_from[:, :d], z_to[:, d : 2 * d],
                               row_matvec(G.Ad_star(w_el), z_to[:, 2 * d :]), -z_from[:, d : 2 * d], -z_from[:, 2 * d :])
        w_conn = worst(row_norm(_pair_s(arrow) - z_from) + row_norm(pair_t(arrow) - z_to))

    # graph isotropy of the action map (Lagrangian by dimension count)
    y = PairClassPoint(y_m1, y_w, y_m2, y_a1, b1, y_a2, bsum - b1)
    w_iso = _graph_isotropy(bundle, y, (m1_0, w_0, a1_0), span, pairs)

    rep.add("target_poisson", w_t, 1e-6)
    rep.add("source_anti_poisson", w_s, 1e-6)
    if w_el is not None:
        rep.add("orbit_connectivity", w_conn, 1e-9)
    else:
        rep.extras["orbit_connectivity"] = f"skipped: no coadjoint transport rule for group {G.name!r}"
    rep.add("graph_isotropy", w_iso, 1e-7)
    rep.extras["trials"] = samples
    return rep


def _isotropy_directions(bundle: BundleSpec) -> tuple[list[tuple], list[tuple]]:
    """The (slot, index, None) moves of the graph tangents, 6d + 3n in all: lam's free slots, then the leaf moves
    of y (free slots and b-preserving pairs), which the orbit moves of b2, one candidate per algebra direction, follow."""
    d, n = bundle.d, bundle.n
    lam = [("m1", d), ("w", n), ("a1", d)]
    y = [("m1", d), ("w", n), ("m2", d), ("a1", d), ("a2", d), ("bpair", n)]
    return tuple([(slot, i, None) for slot, size in slots for i in range(size)] for slots in (lam, y))


def _isotropy_draw(bundle: BundleSpec, orbit: CoadjointOrbit, rng: np.random.Generator) -> tuple:
    """One sample's graph-isotropy draws: the composable pair and the tangent pairs to test.

    Returns bsum, b1 and the coordinates of y (in the leaf), then those of
    lam's free part (m1_0, w_0, a1_0), the orbit tangent span at bsum, and
    the tested pairs as a boolean matrix over every candidate tangent.  The pair
    choice draws a number of values that depends on the orbit directions at
    bsum, so this sample's g1 is exponentiated here, inside the draw loop.
    """
    G = bundle.group
    d, n = bundle.d, bundle.n
    g1, _ = G.random_algebra(rng, 0.8), G.random_algebra(rng, 0.8)
    bsum = G.Ad_star_inv(G.exp(g1)) @ orbit.mu0
    out = (bsum, rng.standard_normal(n), bundle.random_base(rng), G.random_algebra(rng), bundle.random_base(rng), rng.standard_normal(d),
           rng.standard_normal(d), bundle.random_base(rng), G.random_algebra(rng), rng.standard_normal(d))
    span = orbit.tangent_span(bsum)
    fixed = 6 * d + 3 * n  # the moves of _isotropy_directions
    tangents = np.concatenate([np.arange(fixed), fixed + np.array([i for i in range(n) if np.linalg.norm(span[:, i]) > 1e-10], dtype=int)])
    pair_idx = [(i, j) for i in range(tangents.size) for j in range(i + 1, tangents.size)]
    if len(pair_idx) > 60:
        picks = rng.choice(len(pair_idx), size=60, replace=False)
        pair_idx = [pair_idx[int(k)] for k in picks]
    pairs = np.zeros((fixed + n, fixed + n), dtype=bool)
    rows, cols = tangents[np.array(pair_idx, dtype=int).reshape(-1, 2)].T
    pairs[rows, cols] = True
    return *out, span, pairs


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


def _graph_isotropy(bundle: BundleSpec, y: PairClassPoint, free: tuple[Array, Array, Array], span: Array, pairs: Array) -> float:
    """Isotropy of the action-graph tangent spaces for omega_Gamma + omega_L - omega_L, over stacked samples.

    y lies in the leaf and lam = lam_for(y) with the free part (m1_0, w_0,
    a1_0) is composable with it.  The graph tangents are the free lam moves
    with y frozen and the leaf moves of y that lam follows.  Each group of
    displaced points (lam's free moves, lam following y, y's moves, and the
    two products) holds every sample as one stack, differentiated by one
    ``fd.quotient`` and one ``fd.group_velocity``; a group at a time keeps
    the temporary arrays small, which keeps the heap from growing over many
    runs in one process.  ``pairs`` (samples, tangents, tangents) marks the
    tangent pairs tested per sample.
    """
    G = bundle.group
    d = bundle.d
    h = fd.FINE_STEP
    m1_0, w_0, a1_0 = free

    def lam_for(y: PairClassPoint, beta: Array) -> PairClassPoint:
        """The lam composable with y: its b1 is beta = Ad*_{y.w^-1} y.b1, and its free part is (m1_0, w_0, a1_0)."""
        m1, w, a1 = (np.broadcast_to(v, like.shape) for v, like in ((m1_0, y.m1), (w_0, y.w), (a1_0, y.a1)))
        return PairClassPoint(m1, w, y.m1, a1, beta, -y.a1, -beta)

    m_y = G.Ad_star_inv(y.w)
    lam0 = lam_for(y, row_matvec(m_y, y.b1))
    lam_dirs, y_dirs = _isotropy_directions(bundle)
    y_dirs += [("borbit", i, span[:, :, i]) for i in range(bundle.n)]

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
    return worst(np.max(np.abs(resid, out=resid), where=pairs, initial=0.0))
