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
from .bundle import BundleSpec, ConnectionData, CotangentSample, Point, QuotientClass, draw_samples, row_dot, row_matvec
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

    # row_dot and row_matvec written out: the central differences of
    # groupoid_action_suite evaluate one point at a time, thousands of times
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
    """Block gradients (dm, du, da, db): exact when F has them, else central differences.

    The base and fiber blocks differentiate along exp-chart coordinates of
    the moves ``base_move`` and u -> u exp(t), so du is left-trivialized.
    Central differences take one sample; exact gradients may take a stack.
    """
    if F.grads is not None:
        return F.grads(s)
    p, a, b = s.point, s.a, s.b
    eye_d, eye_n, h = np.eye(bundle.d), np.eye(bundle.n), fd.GRAD_STEP
    dm = fd.central(lambda t: F.fn(CotangentSample(Point(bundle.base_move(p.base, t), p.fiber), a, b)), np.zeros(bundle.d), eye_d, h)
    du = fd.central(lambda t: F.fn(CotangentSample(Point(p.base, p.fiber @ bundle.group.exp(t)), a, b)), np.zeros(bundle.n), eye_n, h)
    da = fd.central(lambda x: F.fn(CotangentSample(p, x, b)), a, eye_d, h)
    db = fd.central(lambda x: F.fn(CotangentSample(p, a, x)), b, eye_n, h)
    return dm, du, da, db


def cotangent_bracket(bundle: BundleSpec, F: CotangentFn, G: CotangentFn, s: CotangentSample) -> float | Array:
    """Canonical Poisson bracket of T*P in the trivialization-induced frame.

    At one sample, or per sample of a stack when F and G have exact block
    gradients; each row has the bits of its one-sample call.
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
    ``cotangent_grads``' central differences at one sample.
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
    fields = [ScalarField(lambda mu, x=x: float(x @ mu), lambda mu, x=x: np.broadcast_to(x, np.shape(mu)).copy(), name=f"linear{i}")
              for i, x in enumerate(linear)]
    fields += [ScalarField(lambda mu, q=q: float(mu @ q @ mu), lambda mu, q=q: 2.0 * row_matvec(q, mu), name=f"quadratic{i}")
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
        """Columns ad*_{e_i} mu spanning the orbit tangent space at mu."""
        n = self.group.dim
        return np.stack([self.group.ad_star(np.eye(n)[i]) @ mu for i in range(n)], axis=1)

    def membership_residual(self, mu: Array) -> float:
        cas = casimir_fields(self.group)
        if cas:
            return worst(*(abs(c(mu) - c(self.mu0)) for c in cas))
        if not self.samples:
            return float(np.linalg.norm(mu - self.mu0))
        return min(float(np.linalg.norm(mu - s)) for s in self.samples + [self.mu0])


def coadjoint_orbit(group: LieGroupSpec, mu0: Array, n_samples: int = 40, seed: int = 0) -> CoadjointOrbit:
    mu0 = np.asarray(mu0, dtype=float)
    rng = stream(seed, f"poisson.orbit/{group.name}")
    orbit = CoadjointOrbit(group, mu0)
    for _ in range(n_samples):
        g = group.random_element(rng, scale=0.8)
        orbit.samples.append(group.Ad_star_inv(g) @ mu0)
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


def _rotation(axis: Array, angle: float) -> Array:
    """Rotation of R^3 by angle about the unit axis (Rodrigues)."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return rodrigues(angle * k)


def coadjoint_transport(group: LieGroupSpec, mu_from: Array, mu_to: Array) -> Array:
    """A group element w with Ad*_{w^-1} mu_from = mu_to (orbit alignment)."""
    mu_from = np.asarray(mu_from, dtype=float)
    mu_to = np.asarray(mu_to, dtype=float)
    if np.allclose(group.structure, 0.0):
        if np.linalg.norm(mu_from - mu_to) > 1e-9:
            raise ValueError("points on distinct orbits of an abelian group")
        return group.identity()
    if _acts_by_rotation(group):
        # rotate mu_from onto mu_to
        a, b = mu_from, mu_to
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if abs(na - nb) > 1e-8 * max(1.0, na):
            raise ValueError(f"points on distinct {group.name}* orbits")
        if na < 1e-14:
            return group.identity()
        axis = np.cross(a, b)
        s = np.linalg.norm(axis) / (na * nb)
        c = float(a @ b) / (na * nb)
        if s < 1e-12:
            if c > 0:
                return group.identity()
            # antipodal: rotate by pi around any axis orthogonal to a
            perp = np.eye(3)[int(np.argmin(np.abs(a)))]
            perp = perp - (perp @ a) / (na * na) * a
            return _rotation(perp / np.linalg.norm(perp), np.pi * (1 - 1e-12))
        return _rotation(axis / np.linalg.norm(axis), float(np.arctan2(s, c)))
    raise NotImplementedError(f"no coadjoint transport rule for group {group.name!r}")


# ---------------------------------------------------------------------------
# symplectic two-forms in trivialized coordinates
# ---------------------------------------------------------------------------


def dexp_left(group: LieGroupSpec, xi: Array, dxi: Array, terms: int = 24) -> Array:
    """Left-trivialized velocity of t -> exp(xi + t dxi) at t = 0.

    The standard series sum_k (-ad_xi)^k / (k+1)! applied to dxi; it stops at
    the first term that is exactly zero, after which every term vanishes (ad_xi
    nilpotent on dxi, as for abelian and Heisenberg algebras).
    """
    acc = np.asarray(dxi, dtype=float).copy()
    out = acc.copy()
    neg_ad = -group.ad(xi)
    fact = 1.0
    for k in range(1, terms):
        acc = neg_ad @ acc
        if not acc.any():
            break
        fact *= k + 1
        out = out + acc / fact
    return out


def canonical_two_form(factors: Sequence[int | LieGroupSpec], covector: Array) -> Array:
    """Matrix of d gamma on T*Q, Q a product of vector (given by dimension) and group factors.

    Left-trivialized tangents are laid out (velocities xi | covector changes nu)
    and covector holds mu; v1 . Omega . v2 = <nu1, xi2> - <nu2, xi1> - <mu, [xi1, xi2]>,
    so Omega = [[-S, -I], [I, 0]] with S block-diagonal: structure @ mu on each
    group factor, 0 on each vector factor.
    """
    mu = np.asarray(covector, dtype=float)
    dim = mu.size
    out = np.zeros((2 * dim, 2 * dim))
    off = 0
    for f in factors:
        if isinstance(f, LieGroupSpec):
            out[off : off + f.dim, off : off + f.dim] = -(f.structure @ mu[off : off + f.dim])
            off += f.dim
        else:
            off += f
    if off != dim:
        raise ValueError(f"factors of total dimension {off} do not match a covector of size {dim}")
    eye = np.eye(dim)
    out[:dim, dim:] = -eye
    out[dim:, :dim] = eye
    return out


# ---------------------------------------------------------------------------
# symplectic leaves of T*P/G
# ---------------------------------------------------------------------------


def leaf_structure(bundle: BundleSpec, orbit: CoadjointOrbit, samples: int = 25, seed: int = 0,
                   tol_affine: float = 1e-10, membership_tol: float = 1e-8) -> SuiteReport:
    """Membership, dimension, affine fibration, and section checks for J^{-1}(O)/G."""
    rep = SuiteReport(f"poisson.leaf[{bundle.name}|orbit({orbit.group.name})]")
    rng = stream(seed, f"poisson.leaf/{bundle.name}")
    d, n = bundle.d, bundle.n
    G = bundle.group

    w_member = w_aff = w_pis = w_surj = 0.0
    dim_ok = True
    leaf_dims = set()
    for _ in range(samples):
        # on-orbit sample upstairs, arbitrary gauge
        g = G.random_element(rng, scale=0.8)
        chi = G.Ad_star_inv(g) @ orbit.mu0
        phi = bundle.random_cotangent(rng)
        phi = CotangentSample(phi.point, phi.a, G.Ad_star(phi.point.fiber) @ chi)

        # (a) membership equivalence: J-side vs iota*-side verdicts
        j_val = bundle.momentum(phi)
        j_member = orbit.membership_residual(j_val) <= membership_tol
        base_r, chi_r = bundle.iota_star(bundle.quotient_rep(phi))
        i_member = orbit.membership_residual(chi_r) <= membership_tol
        w_member = worst(w_member, 0.0 if (j_member and i_member) else 1.0)

        off = bundle.random_cotangent(rng)  # generic covector: off the orbit unless G is abelian
        if orbit.membership_residual(bundle.momentum(off)) > 10 * membership_tol:
            j_off = orbit.membership_residual(bundle.momentum(off)) <= membership_tol
            i_off = orbit.membership_residual(bundle.iota_star(bundle.quotient_rep(off))[1]) <= membership_tol
            w_member = worst(w_member, 0.0 if (j_off == i_off) else 1.0)

        # (b) leaf dimension: rank of the tangent span of the parametrization
        # (m, rho, orbit direction) -> a*(rho) + sigma(m, transported chi)
        x0 = bundle.class_coords(phi)
        m0, chi0 = x0[:d], x0[2 * d :]

        def embed(z: Array) -> Array:
            mm, rho, svec = z[:d], z[d : 2 * d], z[2 * d :]
            chi_s = G.Ad_star(G.exp(-svec)) @ chi0
            cls = bundle.sigma(mm, chi_s)
            return np.concatenate([mm, cls.rep.a + rho, chi_s])

        z0 = np.concatenate([m0, np.zeros(d + n)])
        span = fd.central(embed, z0, np.eye(2 * d + n), fd.FINE_STEP).T
        svals = np.linalg.svd(span, compute_uv=False)
        leaf_dim = int(np.sum(svals > 1e-6 * max(svals[0], 1.0)))
        leaf_dims.add(leaf_dim)
        dim_ok = dim_ok and (leaf_dim == 2 * d + orbit.dim)

        # (c) the affine action is free and transitive on iota*-fibers
        cls1 = bundle.class_coords(phi)
        rho2 = rng.standard_normal(d)
        cls2 = np.concatenate([cls1[:d], cls1[d : 2 * d] + rho2, cls1[2 * d :]])
        diff_rho = cls2[d : 2 * d] - cls1[d : 2 * d]
        recon = bundle.a_star(cls1[:d], diff_rho)
        moved = np.concatenate([cls1[:d], cls1[d : 2 * d] + recon.rep.a, cls1[2 * d :] + recon.rep.b])
        w_aff = worst(w_aff, float(np.linalg.norm(moved - cls2)))

        # (d) pi_sigma: gauge-choice independence and constructive surjectivity
        cls_a = bundle.class_coords(phi)
        cls_b = bundle.class_coords(bundle.cot_act(phi, G.random_element(rng)))
        pis_a = cls_a[d : 2 * d] - bundle.sigma(cls_a[:d], cls_a[2 * d :]).rep.a
        pis_b = cls_b[d : 2 * d] - bundle.sigma(cls_b[:d], cls_b[2 * d :]).rep.a
        w_pis = worst(w_pis, float(np.linalg.norm(pis_a - pis_b)))
        # preimage of a random rho: sigma(m, chi) + a*(rho) maps back to rho
        rho_target = rng.standard_normal(d)
        sec = bundle.sigma(m0, chi0)
        preimage = QuotientClass(CotangentSample(sec.rep.point, sec.rep.a + rho_target, sec.rep.b))
        w_surj = worst(w_surj, float(np.linalg.norm(bundle.sigma_tilde(preimage) - rho_target)))

    rep.add("membership_equivalence", w_member, 0.5)
    rep.add("leaf_dimension", 0.0 if dim_ok else 1.0, 0.5, expected=2 * d + orbit.dim, got=sorted(leaf_dims))
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
    maps the leaf to T*(P/G) through the connection-induced section.
    """
    chi = np.asarray(chi, dtype=float)
    G = bundle.group
    span = np.stack([G.ad_star(np.eye(G.dim)[i]) @ chi for i in range(G.dim)], axis=1)
    if float(np.max(np.abs(span))) > 1e-10:
        raise ValueError("magnetic term needs a one-point orbit (chi must be a character)")
    d, n = bundle.d, bundle.n

    def leaf_state(m: Array, rho: Array) -> CotangentSample:
        # inverse of pi_sigma: a = rho + sigma-part
        cls = bundle.sigma(m, chi)
        return CotangentSample(Point(m, G.identity()), rho + cls.rep.a, chi.copy())

    def leaf_coords(z: Array) -> Array:
        s = leaf_state(z[:d], z[d:])
        return np.concatenate([s.point.base, s.a])

    def two_form(m: Array, rho: Array, t1: Array, t2: Array) -> float:
        """Evaluate on tangents (dm, drho) of T*(P/G) at (m, rho)."""
        # pushforward through the leaf embedding, by central differences;
        # it has no fiber (u, b) components
        pushed = fd.central(leaf_coords, np.concatenate([m, rho]), [t1, t2], fd.GRAD_STEP)
        zero = np.zeros((2, n))
        p1, p2 = np.hstack([pushed[:, :d], zero, pushed[:, d:], zero])
        s0 = leaf_state(m, rho)
        wchi = float(p1 @ canonical_two_form([d, G], s0.coords) @ p2)
        # canonical d(gamma~) of T*(P/G) on the flat chart
        return wchi - float(t1 @ canonical_two_form([d], rho) @ t2)

    rep = SuiteReport(f"poisson.magnetic[{bundle.name}]")
    rng = stream(seed, f"poisson.magnetic/{bundle.name}")
    w_match = w_closed = w_basic = 0.0
    flat = not any(any(monos for monos in per_base) for per_base in bundle.connection.terms)
    for _ in range(samples):
        m = bundle.random_base(rng)
        rho = rng.standard_normal(d)
        t1, t2 = rng.standard_normal(2 * d), rng.standard_normal(2 * d)
        val = two_form(m, rho, t1, t2)
        # oracle: the chi-component of the curvature two-form of A
        f2 = bundle.connection.curvature_two_form(bundle.base_coords_for_connection(m))
        oracle = float(t1[:d] @ np.einsum("ijk,k->ij", f2, chi) @ t2[:d])
        w_match = worst(w_match, abs(val - oracle))

        # basic: vanishes when either argument is a pure fiber direction
        fib = np.concatenate([np.zeros(d), rng.standard_normal(d)])
        w_basic = worst(w_basic, abs(two_form(m, rho, fib, t2)))

        # closedness: finite-difference exterior derivative on coordinate triples
        # (coordinate directions commute, so the cyclic-derivative formula applies)
        if d >= 2:
            idx = rng.choice(d, size=min(3, d), replace=False)
            e = [np.concatenate([np.eye(d)[i], np.zeros(d)]) for i in idx]
            while len(e) < 3:
                e.append(np.concatenate([np.zeros(d), np.eye(d)[rng.integers(d)]]))

            z = np.concatenate([m, rho])
            dval = 0.0
            for a_, b_, c_ in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
                dval += fd.central(lambda zz: two_form(zz[:d], zz[d:], e[b_], e[c_]), z, [e[a_]], fd.CLOSED_STEP)[0]
            w_closed = worst(w_closed, abs(dval))
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
    """Gauge-fixed point of (T*P x T*P)/G: legs ((m1, w), (m2, e)) with covectors."""

    m1: Array
    w: Array
    m2: Array
    a1: Array
    b1: Array
    a2: Array
    b2: Array


def _pair_omega(bundle: BundleSpec, z: PairClassPoint) -> Array:
    """Matrix of the ambient form d(gamma + gamma) on gauge-slice tangents.

    Tangent layout: (dm1, eta, dm2, da1, db1, da2, db2).  This is T*(M x G x M)
    with covector (a1, b1, a2), plus db2, which pairs with nothing: the second
    leg stays on the fiber-identity slice, so its group direction vanishes.
    """
    k = 4 * bundle.d + 2 * bundle.n
    out = np.zeros((k + bundle.n, k + bundle.n))
    out[:k, :k] = canonical_two_form([bundle.d, bundle.group, bundle.d], np.concatenate([z.a1, z.b1, z.a2]))
    return out


def _pair_t(bundle: BundleSpec, z: PairClassPoint) -> Array:
    """Target map to T*P/G coordinates: class of the first leg."""
    m_w = bundle.group.Ad_star_inv(z.w)
    return np.concatenate([z.m1, z.a1, m_w @ z.b1])


def _pair_s(z: PairClassPoint) -> Array:
    """Source map to T*P/G coordinates: class of minus the second leg."""
    return np.concatenate([z.m2, -z.a2, -z.b2])


def _pair_product(lam: PairClassPoint, y: PairClassPoint) -> PairClassPoint:
    """Groupoid product in (T*P x T*P)/G of gauge-fixed representatives."""
    return PairClassPoint(lam.m1, lam.w @ y.w, y.m2, lam.a1, y.b1, y.a2, y.b2)


def groupoid_action_suite(bundle: BundleSpec, orbit: CoadjointOrbit, samples: int = 12, seed: int = 0) -> SuiteReport:
    """Target/source Poisson properties, orbit connectivity, and graph isotropy."""
    rep = SuiteReport(f"poisson.groupoid_action[{bundle.name}]")
    rng = stream(seed, f"poisson.groupoid_action/{bundle.name}")
    quot = quotient_cotangent(bundle)
    G = bundle.group
    d, n = bundle.d, bundle.n

    # T*Gamma = T*((PxP)/G) is T*P' for the trivial bundle P' = (M x M) x G,
    # in gauge coordinates (m1, m2; w) with fiber covectors (b1, b2) = (beta, -beta)
    arrows = BundleSpec("TrivialProduct", G, ConnectionData.flat(2 * d, n), np.vstack([bundle.base_box] * 2))
    pair_t = partial(_pair_t, bundle)

    def on_arrows(f: ScalarField, leg) -> CotangentFn:
        def fn(s: CotangentSample) -> float:
            base = s.point.base
            return f(leg(PairClassPoint(base[:d], s.point.fiber, base[d:], s.a[:d], s.b, s.a[d:], -s.b)))
        return CotangentFn(fn)

    w_t = w_s = w_conn = w_iso = 0.0
    transported = False
    for _ in range(samples):
        # random arrow of T*Gamma: b2 = -b1
        beta = rng.standard_normal(n)
        lam = PairClassPoint(bundle.random_base(rng), G.random_element(rng), bundle.random_base(rng),
                             rng.standard_normal(d), beta, rng.standard_normal(d), -beta)
        s = CotangentSample(Point(np.concatenate([lam.m1, lam.m2]), lam.w), np.concatenate([lam.a1, lam.a2]), beta)

        f = random_polynomial(rng, quot.dim)
        g = random_polynomial(rng, quot.dim)
        lhs = cotangent_bracket(arrows, on_arrows(f, pair_t), on_arrows(g, pair_t), s)
        rhs = quot.bracket(f, g, pair_t(lam))
        w_t = worst(w_t, abs(lhs - rhs))

        lhs = cotangent_bracket(arrows, on_arrows(f, _pair_s), on_arrows(g, _pair_s), s)
        rhs = quot.bracket(f, g, _pair_s(lam))
        w_s = worst(w_s, abs(lhs + rhs))

        # orbit connectivity: any two leaf points of J^{-1}(O)/G are joined by an arrow
        g1, g2 = G.random_element(rng, 0.8), G.random_element(rng, 0.8)
        b_from = G.Ad_star_inv(g1) @ orbit.mu0
        b_to = G.Ad_star_inv(g2) @ orbit.mu0
        z_from = np.concatenate([bundle.random_base(rng), rng.standard_normal(d), b_from])
        z_to = np.concatenate([bundle.random_base(rng), rng.standard_normal(d), b_to])
        try:
            w_el = coadjoint_transport(G, z_from[2 * d :], z_to[2 * d :])
        except NotImplementedError:
            w_el = None
        if w_el is not None:
            transported = True
            arrow = PairClassPoint(z_to[:d], w_el, z_from[:d], z_to[d : 2 * d],
                                   G.Ad_star(w_el) @ z_to[2 * d :], -z_from[d : 2 * d], -z_from[2 * d :])
            res = float(np.linalg.norm(_pair_s(arrow) - z_from)) + float(np.linalg.norm(pair_t(arrow) - z_to))
            w_conn = worst(w_conn, res)

        # graph isotropy of the action map (Lagrangian by dimension count)
        w_iso = worst(w_iso, _graph_isotropy_sample(bundle, orbit, rng))

    rep.add("target_poisson", w_t, 1e-6)
    rep.add("source_anti_poisson", w_s, 1e-6)
    if transported:
        rep.add("orbit_connectivity", w_conn, 1e-9)
    else:
        rep.extras["orbit_connectivity"] = f"skipped: no coadjoint transport rule for group {G.name!r}"
    rep.add("graph_isotropy", w_iso, 1e-7)
    rep.extras["trials"] = samples
    return rep


def _graph_isotropy_sample(bundle: BundleSpec, orbit: CoadjointOrbit, rng: np.random.Generator) -> float:
    """Isotropy of the action-graph tangent space for omega_Gamma + omega_L - omega_L."""
    G = bundle.group
    d, n = bundle.d, bundle.n
    h = fd.FINE_STEP

    # composable pair: y in the leaf, lam with s(lam) = t(y)
    g1, g2 = G.random_element(rng, 0.8), G.random_element(rng, 0.8)
    bsum = G.Ad_star_inv(g1) @ orbit.mu0
    b1 = rng.standard_normal(n)
    y = PairClassPoint(bundle.random_base(rng), G.random_element(rng), bundle.random_base(rng),
                       rng.standard_normal(d), b1, rng.standard_normal(d), bsum - b1)

    def lam_for(y: PairClassPoint, m1, w, a1) -> PairClassPoint:
        beta = G.Ad_star_inv(y.w) @ y.b1
        return PairClassPoint(m1, w, y.m1, a1, beta, -y.a1, -beta)

    m1_0, w_0, a1_0 = bundle.random_base(rng), G.random_element(rng), rng.standard_normal(d)

    # leaf tangent directions at y: free slots, b-preserving pairs, orbit moves
    directions = []
    for slot, k in (("m1", d), ("w", n), ("m2", d), ("a1", d), ("a2", d)):
        for i in range(k):
            directions.append((slot, i, None))
    for i in range(n):
        directions.append(("bpair", i, None))
    span = orbit.tangent_span(bsum)
    for i in range(n):
        v = span[:, i]
        if np.linalg.norm(v) > 1e-10:
            directions.append(("borbit", i, v))

    def move(z: PairClassPoint, direction, t: float) -> PairClassPoint:
        slot, i, payload = direction
        vals = {k: getattr(z, k) for k in ("m1", "w", "m2", "a1", "b1", "a2", "b2")}
        if slot == "w":
            e = np.zeros(n); e[i] = t
            vals["w"] = z.w @ G.exp(e)
        elif slot == "bpair":
            e = np.zeros(n); e[i] = t
            vals["b1"] = z.b1 + e
            vals["b2"] = z.b2 - e
        elif slot == "borbit":
            vals["b2"] = z.b2 + t * payload
        else:
            arr = vals[slot].copy()
            arr[i] += t
            vals[slot] = arr
        return PairClassPoint(**vals)

    def coords_tangent(zm: PairClassPoint, zp: PairClassPoint) -> Array:
        """Tangent (dm1, eta, dm2, da1, db1, da2, db2) from the points at -h and +h."""
        dv = fd.quotient(*(np.concatenate([z.m1, z.m2, z.a1, z.b1, z.a2, z.b2]) for z in (zm, zp)), h)
        return np.concatenate([dv[:d], fd.group_velocity(G, zm.w, zp.w, h), dv[d:]])

    # graph tangents: free lam-part (dm1, eta, da1) with y frozen, plus leaf moves
    tangents = []
    lam0 = lam_for(y, m1_0, w_0, a1_0)
    z0 = _pair_product(lam0, y)
    for slot, k in (("m1", d), ("w", n), ("a1", d)):
        for i in range(k):
            lm, lp = move(lam0, (slot, i, None), -h), move(lam0, (slot, i, None), h)
            dz = coords_tangent(_pair_product(lm, y), _pair_product(lp, y))
            tangents.append((coords_tangent(lm, lp), np.zeros(4 * d + 3 * n), dz))
    for direction in directions:
        ym, yp = move(y, direction, -h), move(y, direction, h)
        lm, lp = lam_for(ym, m1_0, w_0, a1_0), lam_for(yp, m1_0, w_0, a1_0)
        dz = coords_tangent(_pair_product(lm, ym), _pair_product(lp, yp))
        tangents.append((coords_tangent(lm, lp), coords_tangent(ym, yp), dz))

    count = len(tangents)
    pair_idx = [(i, j) for i in range(count) for j in range(i + 1, count)]
    if len(pair_idx) > 60:
        picks = rng.choice(len(pair_idx), size=60, replace=False)
        pair_idx = [pair_idx[int(k)] for k in picks]
    # all pairs at once: omega on leg tangents T is T . Omega . T^T
    legs = np.array(tangents)
    forms = [legs[:, i] @ _pair_omega(bundle, z) @ legs[:, i].T for i, z in enumerate((lam0, y, z0))]
    rows, cols = np.array(pair_idx).T
    return float(np.max(np.abs(forms[0] + forms[1] - forms[2])[rows, cols]))
