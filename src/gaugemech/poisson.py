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
run by ``omega_a_equals_dgamma_K``.

Casimirs of a coalgebra (``casimir_fields``) follow from the structure
constants of the group, never from its name.  The groupoid that acts on the
leaves is in ``poisson_groupoid``, and the RK4 step generated from a space
and a Hamiltonian in ``codegen``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import fd
from .bundle import BoxBase, BundleSpec, CotangentSample, Point, QuotientClass
from .codegen import affine_gradient
from .liealg import LieGroupSpec
from .linalg import rank_gap, row_dot, row_form, row_matvec, row_norm, row_vecmat
from .report import SuiteReport, worst
from .rng import stream

Array = np.ndarray

JACOBI_TOL = 1e-6  # the bound of each jacobi_check in the poisson.jacobi suite (FD-dominated residuals)


class ChartError(ValueError):
    """Point outside the coordinate chart of a Poisson space."""


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


@dataclass
class ScalarField:
    """A smooth function of coordinates, with optional exact gradient.

    ``fn`` and ``grad`` take one point (dim,) or a stack (..., dim) and give
    one value, or one gradient row, per point; each row of a stack has the
    bits of its one-point call, so a report or CSV does not depend on how
    many points were evaluated at once (square with a product or
    ``np.square``: a numpy scalar's ``** 2`` can round unlike an array's).
    Calling the field gives a float for one point and an array for a stack.
    A value whose shape is not one per point, or an exact gradient whose
    shape is not one row per point, raises ValueError.  On a stack whose
    leading axis is dim a one-point formula can have that shape, so the value
    or the exact gradient is then evaluated once more on ``x[None]``.

    Without ``grad``, ``gradient`` takes central differences at
    ``fd.GRAD_STEP``, one gradient row per point of a stack, evaluating the
    field (with its shape check) once on every displaced point.

    ``affine``, when attached, is a pair (A, f) with grad H(x) = A x + f; the
    exact gradient is then compiled from it (``codegen.affine_gradient``), and
    A and f are inlined into the RK4 step of ``codegen.compile_step``.
    """

    fn: Callable[[Array], float | Array]
    grad: Callable[[Array], Array] | None = None
    name: str = ""
    affine: tuple[Array, Array] | None = None

    def __post_init__(self) -> None:
        if self.affine is not None:
            self.affine = tuple(np.asarray(m, dtype=float) for m in self.affine)
            if self.grad is None:
                self.grad = affine_gradient(*self.affine)

    def __call__(self, x: Array) -> float | Array:
        x = np.asarray(x, dtype=float)
        value = np.asarray(self.fn(x), dtype=float)
        if not _one_per_point(self.fn, x, value, ()):
            raise ValueError(f"field {self.name!r} must give one value per point of {x.shape}, got shape {value.shape}")
        return float(value) if x.ndim == 1 else value

    def gradient(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            grad = np.asarray(self.grad(x), dtype=float)
            if not _one_per_point(self.grad, x, grad, x.shape[-1:]):
                raise ValueError(f"gradient of field {self.name!r} must give one row per point of {x.shape}, got shape {grad.shape}")
            return grad
        # central gives one row per direction; a stack takes one contiguous gradient row per point
        return np.moveaxis(fd.central(self, x, np.eye(x.shape[-1]), fd.GRAD_STEP), 0, -1).copy()


def _one_per_point(formula: Callable[[Array], Array], x: Array, out: Array, shape: tuple[int, ...]) -> bool:
    """Whether ``out`` = formula(x) holds one result of ``shape`` per point of x.

    A one-point formula such as ``x[0] * x[1]`` mixes the rows of a stack whose leading axis is dim in the right
    shape, but not on ``x[None]``, so it is then evaluated there once more; an IndexError counts as a mismatch.
    """
    lead = x.shape[:-1]
    try:
        return out.shape == lead + shape and not (x.ndim > 1 and x.shape[0] == x.shape[-1] and np.shape(formula(x[None])) != (1,) + lead + shape)
    except IndexError:
        return False


def coordinate_field(i: int, dim: int) -> ScalarField:
    e = np.eye(dim)[i]
    return ScalarField(lambda x, i=i: x[..., i].copy(), lambda x, e=e: np.broadcast_to(e, np.shape(x)).copy(), name=f"x{i}")


@dataclass(frozen=True)
class Polynomial:
    """c0 + c1.x + x.c2.x + c3.x^3 (cube taken entrywise), with its exact gradient.

    The coefficients may carry leading stack axes, one polynomial per row (as
    ``random_polynomial`` draws them); they broadcast against the leading axes
    of the points, and each row has the bits of its one-polynomial call.
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

    def unstack(self) -> list[Polynomial]:
        """The stacks along the first axis of a polynomial stack: (m, N, ...) coefficients to m stacks of N polynomials."""
        return [Polynomial(*c) for c in zip(self.c0, self.c1, self.c2, self.c3)]


def random_polynomial(rng: np.random.Generator, dim: int, lead: tuple[int, ...], degree: int = 2) -> Polynomial:
    """A block of random polynomials of leading shape ``lead``, with bounded coefficients: a symmetric c2, zero below
    degree 2, and c3 drawn only for degree 3.  Each coefficient is drawn once, as a block with one row per polynomial."""
    c0 = rng.normal(size=lead)
    c1 = rng.normal(size=lead + (dim,))
    c2 = rng.normal(size=lead + (dim, dim)) * (1.0 / max(1, dim))
    c2 = 0.5 * (c2 + c2.swapaxes(-1, -2)) if degree >= 2 else np.zeros(lead + (dim, dim))
    c3 = rng.normal(size=lead + (dim,)) * (1.0 / max(1, dim)) if degree >= 3 else np.zeros(lead + (dim,))
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

    The blocks differentiate along the moves of ``BundleSpec.moved``: the
    base chart's move, u -> u exp(t), so du is left-trivialized, and the
    covector plus its increment.  Central differences displace the sample
    along the unit vectors of its tangent (tm, tu, da, db) of length
    2(d + n): ``F.fn`` takes stacks and is called once, on every displaced
    copy of every sample of a stack, and each row has the bits of its
    one-sample call.
    """
    if F.grads is not None:
        return F.grads(s)
    d, n = bundle.d, bundle.n
    cuts = np.cumsum([d, n, d])
    grad = fd.central(lambda v: F.fn(bundle.moved(s, v)), np.zeros(s.a.shape[:-1] + (2 * (d + n),)), np.eye(2 * (d + n)), fd.GRAD_STEP)
    # central gives one row per direction; the bracket takes one contiguous row per sample
    return tuple(np.moveaxis(block, 0, -1).copy() for block in np.split(grad, cuts, axis=0))


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

    B_ij(x) = {x_i, x_j}(x) = const_ij + sum_k linear_ijk x_k, ``const`` zeros
    for a Lie-Poisson space; ``box`` (shape (k, 2)) bounds the first k
    coordinates of the chart and is None for all of R^dim.
    """

    kind: str  # canonical | lie_poisson | quotient | product
    linear: Array
    const: Array
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
        return row_matvec(self.linear, np.asarray(x, dtype=float)[..., None, :]) + self.const


def canonical_cotangent(nq: int) -> PoissonSpace:
    """T*R^nq in coordinates (q, p): the constant bivector J."""
    const = np.zeros((2 * nq, 2 * nq))
    const[:nq, nq:] = np.eye(nq)
    const[nq:, :nq] = -np.eye(nq)
    return PoissonSpace("canonical", np.zeros((2 * nq,) * 3), const, name=f"T*R{nq}")


def lie_poisson(group: LieGroupSpec) -> PoissonSpace:
    """g* with {f,g}(mu) = <mu, [grad f, grad g]>: the structure constants are the linear part."""
    return PoissonSpace("lie_poisson", group.structure, np.zeros((group.dim, group.dim)), name=f"{group.name}*")


def product_space(factors: Sequence[PoissonSpace]) -> PoissonSpace:
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
        const[sl, sl] = f.const
        off += f.dim
    return PoissonSpace("product", linear, const, facs[0].box if facs else None, "x".join(f.name for f in facs))


def quotient_cotangent(bundle: BundleSpec) -> PoissonSpace:
    """T*P/G in the class coordinates (m, a, bbar): T*M x g*, chart box on m."""
    if not isinstance(bundle.base, BoxBase):
        raise ValueError("quotient coordinates require a bundle over a base box")
    space = product_space([canonical_cotangent(bundle.d), lie_poisson(bundle.group)])
    return replace(space, kind="quotient", box=bundle.base.box, name=f"T*P/G[{bundle.name}]")


def invariant_lift(bundle: BundleSpec, f: ScalarField | Polynomial) -> CotangentFn:
    """The G-invariant function f o class_coords on T*P.

    Block gradients are exact, at a sample or per sample of a stack, unless f
    is a ``ScalarField`` without an exact gradient; then they come from
    ``cotangent_grads``' central differences, which evaluate ``fn`` once on
    the stack of displaced samples, as ``f`` takes stacks.
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
    x, (f, g, k) = _sample_point(space, rng, (trials,)), random_polynomial(rng, space.dim, (3, trials)).unstack()
    anti = space.bracket(f, g, x) + space.bracket(g, f, x)
    prod = ScalarField(lambda y: f(y) * g(y), lambda y: f.gradient(y) * g(y)[..., None] + f(y)[..., None] * g.gradient(y))
    leib = space.bracket(prod, k, x) - (f(x) * space.bracket(g, k, x) + g(x) * space.bracket(f, k, x))
    rep.add("antisymmetry", worst(np.abs(anti)), 1e-12)
    rep.add("leibniz", worst(np.abs(leib)), 1e-8)
    rep.extras["trials"] = trials
    return rep


def _sample_point(space: PoissonSpace, rng: np.random.Generator, lead: tuple[int, ...]) -> Array:
    """A block of points of leading shape ``lead``: uniform on the inner part of the chart box, as
    BundleSpec.random_base draws, and normal elsewhere."""
    if space.box is None:
        return rng.standard_normal(lead + (space.dim,))
    lo, hi = space.box[:, 0], space.box[:, 1]
    return np.concatenate([lo + (hi - lo) * rng.uniform(0.1, 0.9, size=lead + lo.shape), rng.standard_normal(lead + (space.dim - lo.size,))], axis=-1)


def jacobi_check(space: PoissonSpace, trials: int = 20, seed: int = 0, degree: int = 2) -> float:
    """Max cyclic-sum residual over random polynomial triples.

    The nested brackets are differentiated by central differences at the
    coarser ``fd.NESTED_STEP``, so the result is finite-difference dominated.
    Each displaced point of a nested bracket is one stack over the trials.
    """
    rng = stream(seed, f"poisson.jacobi/{space.name}")
    x, (f, g, k) = _sample_point(space, rng, (trials,)), random_polynomial(rng, space.dim, (3, trials), degree).unstack()
    eye = np.eye(space.dim)

    def nest(a: Polynomial, b: Polynomial) -> ScalarField:
        def value(y: Array) -> Array:
            return space.bracket(a, b, y)

        # central gives one row per direction, (dim, ...); the bracket takes one contiguous row per point
        return ScalarField(value, lambda y: np.moveaxis(fd.central(value, y, eye, fd.NESTED_STEP), 0, -1).copy())

    total = space.bracket(f, nest(g, k), x) + space.bracket(g, nest(k, f), x) + space.bracket(k, nest(f, g), x)
    return worst(np.abs(total))


def _on_momentum(h: ScalarField | Polynomial) -> CotangentFn:
    """h o J on T*P: J reads the fiber covector b, so only the b block of the gradient is nonzero."""
    return CotangentFn(lambda s: h(s.b), lambda s: (np.zeros_like(s.a), np.zeros_like(s.b), np.zeros_like(s.a), h.gradient(s.b)))


def dual_pair_check(bundle: BundleSpec, trials: int = 100, seed: int = 0) -> SuiteReport:
    """Polarity of the dual pair, {f o pi_G, h o J} = 0 on T*P, and the quotient bracket.

    ``quotient_matches_lift`` compares the closed-form bracket of T*P/G with
    the T*P bracket of invariant lifts at samples in an arbitrary gauge.
    Each variable of a stream is drawn once, as a block; each bracket is
    evaluated once over the stacked samples.
    """
    rep = SuiteReport(f"poisson.dual_pair[{bundle.name}]")
    quot = quotient_cotangent(bundle)
    cas = casimir_fields(bundle.group)

    rng = stream(seed, f"poisson.dual_pair/{bundle.name}")
    # the covector (point, then components), f on T*P/G, h and (with a Casimir) h2 on g*
    s = bundle.random_cotangents(rng, (trials,))
    f, (h, *h2) = random_polynomial(rng, quot.dim, (trials,)), random_polynomial(rng, bundle.n, (1 + bool(cas), trials)).unstack()
    F = invariant_lift(bundle, f)
    w_pol = worst(np.abs(cotangent_bracket(bundle, F, _on_momentum(h), s)))
    if cas:
        # a Casimir of the coalgebra Poisson-commutes with other J-pullbacks too
        C = _on_momentum(cas[0])
        w_cas = worst(np.abs(cotangent_bracket(bundle, C, _on_momentum(h2[0]), s)), np.abs(cotangent_bracket(bundle, F, C, s)))

    rng = stream(seed, f"poisson.dual_pair.lift/{bundle.name}")
    s = bundle.random_cotangents(rng, (trials,))
    f, g = random_polynomial(rng, quot.dim, (2, trials)).unstack()
    lifted = cotangent_bracket(bundle, invariant_lift(bundle, f), invariant_lift(bundle, g), s)
    w_lift = worst(np.abs(quot.bracket(f, g, bundle.class_coords(s)) - lifted))
    rep.add("polarity", w_pol, 1e-7)
    if cas:
        rep.add("casimir_commutes", w_cas, 1e-7)
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
    fields = [ScalarField(lambda mu, x=x: row_dot(mu, x), lambda mu, x=x: np.broadcast_to(x, np.shape(mu)).copy(), name=f"linear{i}")
              for i, x in enumerate(linear)]
    fields += [ScalarField(lambda mu, q=q: row_dot(row_vecmat(mu, q), mu), lambda mu, q=q: 2.0 * row_matvec(q, mu), name=f"quadratic{i}")
               for i, q in enumerate(quadratic)]
    return fields


@dataclass
class CoadjointOrbit:
    """Orbit of the coadjoint action through mu0, with sampled points."""

    group: LieGroupSpec
    mu0: Array
    samples: list[Array] = field(default_factory=list)
    dim: int = 0

    def tangent_span(self, mu: Array) -> Array:
        """Columns ad*_{e_i} mu spanning the orbit tangent space at mu, one matrix per point of a stack (..., dim)."""
        return np.stack([row_matvec(self.group.ad_star(e), mu) for e in np.eye(self.group.dim)], axis=-1)

    def membership_residual(self, mu: Array) -> float | Array:
        """Distance of mu from the orbit, or of each row of a stack (..., dim).

        The worst change of a Casimir when the group has Casimirs, else the
        distance to the nearest of mu0 and the samples.
        """
        mu = np.asarray(mu, dtype=float)
        cas = casimir_fields(self.group)
        if cas:
            return np.max([np.abs(c(mu) - c(self.mu0)) for c in cas], axis=0)
        return np.min(row_norm(mu[..., None, :] - np.array([self.mu0, *self.samples])), axis=-1)


def coadjoint_orbit(group: LieGroupSpec, mu0: Array, n_samples: int = 40, seed: int = 0) -> CoadjointOrbit:
    """The orbit through mu0 with n_samples points Ad*_{g^-1} mu0, the g drawn as one block and exponentiated as one stack."""
    mu0 = np.asarray(mu0, dtype=float)
    rng = stream(seed, f"poisson.orbit/{group.name}")
    g = group.random_algebra(rng, 0.8, (n_samples,))
    orbit = CoadjointOrbit(group, mu0, list(row_matvec(group.Ad_star_inv(group.exp(g)), mu0)))
    orbit.dim = int(rank_gap(orbit.tangent_span(mu0), 1e-8).rank)
    return orbit


# ---------------------------------------------------------------------------
# symplectic two-forms in trivialized coordinates
# ---------------------------------------------------------------------------


def dexp_left(group: LieGroupSpec, xi: Array, dxi: Array) -> Array:
    """Left-trivialized velocity of t -> exp(xi + t dxi) at t = 0, per row of stacks (..., dim).

    The standard series sum_k (-ad_xi)^k / (k+1)!, k < 24, applied to dxi; a row stops
    at its first term that is exactly zero, after which every term vanishes
    (ad_xi nilpotent on dxi, as for abelian and Heisenberg algebras).  Rows
    that stopped keep their sum, so each row has the bits of its single call.
    """
    acc = np.array(dxi, dtype=float)
    out = acc.copy()
    neg_ad = -group.ad(xi)
    fact = 1.0
    for k in range(1, 24):
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


def leaf_structure(bundle: BundleSpec, orbit: CoadjointOrbit, samples: int = 25, seed: int = 0) -> SuiteReport:
    """Membership, dimension, affine fibration, and section checks for J^{-1}(O)/G.

    Each variable is drawn once, as a block; each check is evaluated once
    over the stacked samples.
    """
    rep = SuiteReport(f"poisson.leaf[{bundle.name}|orbit({orbit.group.name})]")
    rng = stream(seed, f"poisson.leaf/{bundle.name}")
    d, n = bundle.d, bundle.n
    G = bundle.group

    off = bundle.random_cotangents(rng, (samples,))  # a generic covector: off the orbit unless G is abelian
    # the on-orbit covector phi (its base, g its orbit point, its fiber and a), a gauge element, rho2 and rho_target
    base = bundle.random_base(rng, (samples,))
    g, fiber, gauge = G.exp(np.concatenate([G.random_algebra(rng, 0.8, (1, samples)), G.random_algebra(rng, lead=(2, samples))]))
    a, rho2, rho_target = rng.standard_normal((3, samples, d))
    # on-orbit sample upstairs, arbitrary gauge
    chi = row_matvec(G.Ad_star_inv(g), orbit.mu0)
    phi = CotangentSample(Point(base, fiber), a, row_matvec(G.Ad_star(fiber), chi))

    # (a) membership equivalence: J-side vs iota*-side verdicts, on the generic covectors only where they are off the orbit
    def residuals(s: CotangentSample) -> tuple[Array, Array]:
        return orbit.membership_residual(bundle.momentum(s)), orbit.membership_residual(bundle.iota_star(bundle.quotient_rep(s))[1])

    (j_on, i_on), (j_off, i_off) = residuals(phi), residuals(off)
    # a row is on the orbit at residual <= 1e-8; an off-orbit row (J residual above 10 times that) fails when iota* puts it on the orbit
    on_agree = worst(j_on, i_on) <= 1e-8
    off_agree = not np.min(i_off, where=j_off > 10 * 1e-8, initial=np.inf) <= 1e-8

    # (b) leaf dimension: rank of the tangent span of the parametrization
    # (m, rho, orbit direction) -> a*(rho) + sigma(m, transported chi)
    x0 = bundle.class_coords(phi)
    m0, chi0 = x0[:, :d], x0[:, 2 * d :]

    def embed(z: Array) -> Array:
        mm, rho, svec = z[..., :d], z[..., d : 2 * d], z[..., 2 * d :]
        chi_s = row_matvec(G.Ad_star(G.exp(-svec)), chi0)
        return np.concatenate([mm, bundle.sigma(mm, chi_s).rep.a + rho, chi_s], axis=-1)

    z0 = np.concatenate([m0, np.zeros((samples, d + n))], axis=1)
    span = np.moveaxis(fd.central(embed, z0, np.eye(2 * d + n), fd.FINE_STEP), 0, -1)  # (samples, coordinates, directions)
    leaf_dims = rank_gap(span, 1e-6).rank

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
    rep.flag("membership_equivalence", on_agree and off_agree)
    rep.flag("leaf_dimension", dims == {2 * d + orbit.dim}, expected=2 * d + orbit.dim, got=sorted(dims))
    rep.add("affine_transitivity", w_aff, 1e-10)
    rep.add("pi_sigma_well_defined", w_pis, 1e-9)
    rep.add("pi_sigma_surjective", w_surj, 1e-11)
    rep.extras["orbit_dim"] = orbit.dim
    rep.extras["leaf_dim"] = 2 * d + orbit.dim
    rep.extras["membership_trials"] = samples
    rep.extras["affine_transitivity_residual"] = w_aff
    return rep


def is_character(group: LieGroupSpec, chi: Array) -> bool:
    """Whether chi is a one-point coadjoint orbit: ad*_x chi = 0 for every x."""
    chi = np.asarray(chi, dtype=float)
    return float(np.max(np.abs([group.ad_star(x) @ chi for x in np.eye(group.dim)]))) <= 1e-10


def magnetic_term(bundle: BundleSpec, chi: Array, samples: int = 15, seed: int = 0):
    """Two-form evaluator for omega_chi - pi_sigma* d(gamma~) plus its report.

    Requires a one-point coadjoint orbit (``is_character``).  The leaf form
    omega_chi is d gamma (``canonical_two_form``) on tangents pushed through
    the leaf embedding by central differences at the gauge slice; pi_sigma
    maps the leaf to T*(P/G) through the connection-induced section.  The
    evaluator takes one point and tangent pair or stacks of them; the report
    draws each variable once, as a block, and evaluates each check once over
    the stacked samples.
    """
    chi = np.asarray(chi, dtype=float)
    G = bundle.group
    if not is_character(G, chi):
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
    # the point (m, rho), the tangents t1, t2 and the fiber part of fib
    m, (rho, fib), (t1, t2) = bundle.random_base(rng, (samples,)), rng.standard_normal((2, samples, d)), rng.standard_normal((2, samples, 2 * d))
    val = two_form(m, rho, t1, t2)
    # oracle: the chi-component of the curvature two-form of A
    f2 = np.einsum("...ijk,k->...ij", bundle.connection.curvature_two_form(bundle.base.connection_coords(m)), chi)
    w_match = worst(np.abs(val - row_form(t1[:, :d], f2, t2[:, :d])))

    # basic: vanishes when either argument is a pure fiber direction
    w_basic = worst(np.abs(two_form(m, rho, np.concatenate([np.zeros((samples, d)), fib], axis=1), t2)))

    # closedness: finite-difference exterior derivative on coordinate triples
    # (coordinate directions commute, so the cyclic-derivative formula applies)
    w_closed = 0.0
    if d >= 2:
        # distinct base coordinate directions per sample, padded with fiber (rho) directions d + j
        idx = rng.permuted(np.tile(np.arange(d), (samples, 1)), axis=1)[:, : min(3, d)]
        triple = np.concatenate([idx, d + rng.integers(d, size=(samples, 3 - idx.shape[1]))], axis=1)
        e = np.moveaxis(np.eye(2 * d)[triple], 1, 0)  # (3, samples, 2d)
        # the cyclic terms d_a omega(e_b, e_c) for (a, b, c) = (0, 1, 2), (1, 2, 0), (2, 0, 1): one central
        # difference along the three e_a, each displaced point (minus rows, then plus rows) paired with its e_b, e_c
        t1, t2 = (np.concatenate([e[cycle]] * 2) for cycle in ([1, 2, 0], [2, 0, 1]))
        dval = fd.central(lambda zz: two_form(zz[..., :d], zz[..., d:], t1, t2), np.concatenate([m, rho], axis=1), e, fd.CLOSED_STEP)
        w_closed = worst(np.abs(dval[0] + dval[1] + dval[2]))
    if bundle.connection.is_flat or float(np.linalg.norm(chi)) == 0.0:
        rep.add("flat_or_zero_chi_vanishes", w_match, 1e-9)
    rep.add("matches_curvature_oracle", w_match, 1e-7)
    rep.add("closed", w_closed, 1e-6)
    rep.add("basic_on_fiber_directions", w_basic, 1e-9)
    rep.extras["trials"] = samples
    rep.extras["magnetic_closedness_residual"] = w_closed
    return two_form, rep
