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

Casimirs of a coalgebra (``casimir_fields``) follow from the structure
constants of the group, never from its name.  The arrow joining two points of
one leaf is read off the group elements that drew them, for every group.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import fd
from .bundle import BoxBase, BundleSpec, ConnectionData, CotangentSample, Point, QuotientClass, draw_samples, row_dot, row_form, row_matvec, row_norm, row_vecmat
from .liealg import LieGroupSpec
from .linalg import rank_gap
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
    leading axis is dim a one-point formula can have that shape, so the exact
    gradient is then evaluated once more on ``x[None]``; a one-point value
    formula such as ``x[0] * x[1]`` on such a stack is not caught.

    Without ``grad``, ``gradient`` takes central differences at
    ``fd.GRAD_STEP``, one gradient row per point of a stack, evaluating the
    field (with its shape check) once on every displaced point.

    ``affine``, when attached, is a pair (A, f) with grad H(x) = A x + f; the
    exact gradient is then compiled from it (``_affine_gradient``), and A and f
    are inlined into the RK4 step of ``PoissonSpace.compile_step``.
    """

    fn: Callable[[Array], float | Array]
    grad: Callable[[Array], Array] | None = None
    name: str = ""
    affine: tuple[Array, Array] | None = None

    def __post_init__(self) -> None:
        if self.affine is not None:
            self.affine = tuple(np.asarray(m, dtype=float) for m in self.affine)
            if self.grad is None:
                self.grad = _affine_gradient(*self.affine)

    def __call__(self, x: Array) -> float | Array:
        x = np.asarray(x, dtype=float)
        value = np.asarray(self.fn(x), dtype=float)
        if value.shape != x.shape[:-1]:  # a one-point formula such as x[0] * x[1] mixes the rows of a stack
            raise ValueError(f"field {self.name!r} must give one value per point of {x.shape}, got shape {value.shape}")
        return float(value) if x.ndim == 1 else value

    def gradient(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            grad = np.asarray(self.grad(x), dtype=float)
            # a one-point formula such as [x[1], x[0]] mixes rows, in the shape of x when x.shape[0] == dim but not on x[None]
            try:
                mixed = grad.shape != x.shape or (x.ndim > 1 and x.shape[0] == x.shape[-1] and np.shape(self.grad(x[None])) != (1,) + x.shape)
            except IndexError:
                mixed = True
            if mixed:
                raise ValueError(f"gradient of field {self.name!r} must give one row per point of {x.shape}, got shape {grad.shape}")
            return grad
        # central gives one row per direction; a stack takes one contiguous gradient row per point
        return np.moveaxis(fd.central(self, x, np.eye(x.shape[-1]), fd.GRAD_STEP), 0, -1).copy()


def _product(a: str, b: str) -> str:
    """Source of a*b; a factor ``b`` of 1.0 is exact as ``a`` itself."""
    return a if b == "1.0" else f"{a}*{b}"


def _term(coef: float, factor: str) -> str:
    """Source of coef * factor; a coefficient of 1 or -1 is exact as the factor or its negation."""
    return factor if coef == 1.0 else f"-{factor}" if coef == -1.0 else _product(repr(coef), factor)


def _join(terms: Sequence[str]) -> str:
    """Source of the sum of ``terms``, left to right; a term ``-b`` after the first is written ``a - b``.

    IEEE a - b is a + (-b), and -(p*q) is (-p)*q, signed zeros included, so
    the folded sum has the bits of the unfolded one.
    """
    return "".join(t if not i else f" - {t[1:]}" if t.startswith("-") else f" + {t}" for i, t in enumerate(terms))


def _sum_source(coefs: Sequence[float], factors: Sequence[str], const: float = 0.0) -> str:
    """Source of sum_k coefs[k] * factors[k] + const over its nonzero terms, in ascending k, then const.

    Empty ("") when every term is zero. A float is written with ``repr``,
    which reads back to the same bits.
    """
    terms = [_term(c, x) for c, x in zip(coefs, factors) if c != 0.0]
    if const != 0.0:
        terms.append(repr(const))
    return _join(terms)


def _compile(name: str, lines: Sequence[str], namespace: dict, params: str) -> Callable:
    """The function ``def name(params)`` with the body ``lines``, its free names resolved in ``namespace`` (``inf`` and ``nan`` included)."""
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines)
    scope = {"inf": float("inf"), "nan": float("nan"), **namespace}
    exec(compile(source, f"<compiled {name}>", "exec"), scope)
    return scope[name]


def _nan_past_divergence(gradient: Callable[[Sequence[float]], Array]) -> Callable[[Sequence[float]], Array]:
    """``gradient``, reading NaN where it raises at a point with a non-finite entry; at a finite point its exception propagates."""
    def guarded(y: Sequence[float]) -> Array:
        try:
            return gradient(y)
        except Exception:
            if np.isfinite(y).all():
                raise
            return np.full(len(y), np.nan)

    return guarded


def _unpack(names: Sequence[str]) -> str:
    return ", ".join(names) + ","


def _affine_gradient(a: Array, f: Array) -> Callable[[Array], Array]:
    """x -> A x + f at a point or per point of a stack (..., n), its entries compiled to straight-line arithmetic.

    Entry j sums the nonzero A_jl x_l in ascending l, then adds f_j when it is
    nonzero; a row of A without nonzero entries gives f_j itself (its sign of
    zero included), broadcast to one entry per point.
    """
    names = [f"y{k}" for k in range(f.size)]
    rows = [_sum_source(a[j].tolist(), names, float(f[j])) or repr(float(f[j])) for j in range(f.size)]
    entries = _compile("grad", [f"return {_unpack(rows)}"], {}, ", ".join(names))

    def grad(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for j, entry in enumerate(entries(*x.T)):  # x.T and out.T: one coordinate, or one column of a stack, per entry
            out.T[j] = entry  # a constant entry fills its column
        return out

    return grad


def coordinate_field(i: int, dim: int) -> ScalarField:
    e = np.eye(dim)[i]
    return ScalarField(lambda x, i=i: x[..., i].copy(), lambda x, e=e: np.broadcast_to(e, np.shape(x)).copy(), name=f"x{i}")


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
    the moves of the base chart (``BundleSpec.base.move``) and u -> u exp(t), so du is left-trivialized.
    Central differences displace one vector z = (tm, tu, a, b) of length
    2(d + n), the base and fiber chart coordinates (zero at the sample) and
    the covector, along its unit vectors: ``F.fn`` takes stacks and is
    called once, on every displaced copy of every sample of a stack, and
    each row has the bits of its one-sample call.
    """
    if F.grads is not None:
        return F.grads(s)
    p, d, n = s.point, bundle.d, bundle.n
    cuts = np.cumsum([d, n, d])

    def displaced(z: Array) -> Array:
        tm, tu, a, b = np.split(z, cuts, axis=-1)
        return F.fn(CotangentSample(Point(bundle.base.move(p.base, tm), p.fiber @ bundle.group.exp(tu)), a, b))

    z0 = np.concatenate([np.zeros(s.a.shape[:-1] + (d + n,)), s.a, s.b], axis=-1)
    grad = fd.central(displaced, z0, np.eye(2 * (d + n)), fd.GRAD_STEP)
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
    # (hamiltonian, step) of the last hamiltonian compiled by compile_step
    _step: tuple = field(default=(None, None), init=False, repr=False, compare=False)

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

    def _field_source(self, hamiltonian: ScalarField, ys: Sequence[str]) -> tuple[list[str], list[str]]:
        """Source of the Hamiltonian vector field v = B(y) grad H(y) at the coordinates named ``ys``: (lines, rows).

        ``lines`` bind the gradient's locals g0, g1, ...; ``rows[i]`` is the
        expression of v_i in ``ys`` and those locals. v_i sums B_ij g_j in
        ascending j, and B_ij is sum_k linear_ijk y_k in ascending k plus
        const_ij, each sum over its nonzero terms only. With
        ``hamiltonian.affine`` = (A, f) the gradient g = A y + f is inlined as
        in ``_affine_gradient``, and a g_j that vanishes for every y drops out;
        otherwise g is one call ``grad([y0, y1, ...])`` in numpy, with ``grad``
        bound by the caller. ``dynamics.ham_vector_field`` is the numpy reference.
        """
        n = self.dim
        lines = []
        if hamiltonian.affine is None:
            gs = [f"g{j}" for j in range(n)]
            lines.append(f"{_unpack(gs)} = grad([{', '.join(ys)}]).tolist()")
        else:
            a, f = hamiltonian.affine
            gs = []
            for j in range(n):
                g = _sum_source(a[j].tolist(), ys, float(f[j]))
                if a[j].any() and g not in ys:
                    lines.append(f"g{j} = {g}")
                    g = f"g{j}"
                gs.append(g)  # a coordinate, a local, a constant's literal, or "" for zero
        rows = []
        for i in range(n):
            terms = []
            for j, g in enumerate(gs):
                b = _sum_source(self.linear[i, j].tolist(), ys, float(self.const[i, j]))
                if not (b and g):
                    continue
                if not self.linear[i, j].any():
                    terms.append(_term(float(self.const[i, j]), g))
                else:
                    terms.append(_product(b if " " not in b else f"({b})", g))  # a term holds no space, a sum does
            rows.append(_join(terms) or "0.0")
        return lines, rows

    def compile_step(self, hamiltonian: ScalarField) -> Callable[[Sequence[float], float, float, float, int], list[tuple]]:
        """``count`` classical RK4 steps of the Hamiltonian vector field, compiled to one loop of straight-line code.

        ``step(x, h, half, sixth, count)`` takes the state as a sequence of
        ``dim`` floats, the step size, the caller's ``half`` = 0.5*h and
        ``sixth`` = h/6, and the number of steps; it gives the ``count`` states
        that follow x, each a tuple. The state is held in locals between steps.
        Each step's four stages are the field's rows at x, x + half*k1,
        x + half*k2 and x + h*k3, in the order ``_field_source`` documents, and
        the step goes to x + sixth*(k1 + 2.0*k2 + 2.0*k3 + k4), entry by entry
        with exactly these associations.

        With ``hamiltonian.affine`` the step is arithmetic only, so it also
        runs on a sequence of ``dim`` numpy columns, one ensemble member per
        entry, each member with the bits of its own run. Without it, each
        stage calls ``hamiltonian.gradient``; where that raises at a stage
        with a non-finite entry, the stage's gradient reads NaN, so the state
        is non-finite (a divergence, as ``dynamics.integrate`` reports it);
        at a finite stage its exception propagates.

        ``h`` is an argument, so one step serves every step size. The step of
        the last hamiltonian compiled is kept and returned again for it (the
        space and the field are taken as immutable).
        """
        if self._step[0] is not hamiltonian:
            n = self.dim
            xs, ys = [f"x{k}" for k in range(n)], [f"y{k}" for k in range(n)]
            at_x, at_y = self._field_source(hamiltonian, xs), self._field_source(hamiltonian, ys)
            body = []
            for s, coef in enumerate(("", "half", "half", "h"), start=1):
                if coef:
                    body += [f"y{k} = x{k} + {coef}*k{s - 1}_{k}" for k in range(n)]
                glines, rows = at_y if coef else at_x
                body += glines + [f"k{s}_{i} = {row}" for i, row in enumerate(rows)]
            body += [f"x{k} = x{k} + sixth*(k1_{k} + 2.0*k2_{k} + 2.0*k3_{k} + k4_{k})" for k in range(n)]
            body.append(f"append(({_unpack(xs)}))")
            lines = [f"{_unpack(xs)} = x", "rows = []", "append = rows.append", "for _ in range(count):",
                     *(f"    {line}" for line in body), "return rows"]
            self._step = (hamiltonian, _compile("step", lines, {"grad": _nan_past_divergence(hamiltonian.gradient)}, "x, h, half, sixth, count"))
        return self._step[1]


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
        """Columns ad*_{e_i} mu spanning the orbit tangent space at mu."""
        n = self.group.dim
        return np.stack([self.group.ad_star(np.eye(n)[i]) @ mu for i in range(n)], axis=1)

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
    """The orbit through mu0 with n_samples points Ad*_{g^-1} mu0, the g drawn in one loop and exponentiated as one stack."""
    mu0 = np.asarray(mu0, dtype=float)
    rng = stream(seed, f"poisson.orbit/{group.name}")
    g = np.array([group.random_algebra(rng, scale=0.8) for _ in range(n_samples)]).reshape(n_samples, group.dim)
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
    evaluates each check once over the stacked samples.
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
    f2 = np.einsum("...ijk,k->...ij", bundle.connection.curvature_two_form(bundle.base.connection_coords(m)), chi)
    w_match = worst(np.abs(val - row_form(t1[:, :d], f2, t2[:, :d])))

    # basic: vanishes when either argument is a pure fiber direction
    w_basic = worst(np.abs(two_form(m, rho, np.concatenate([np.zeros((samples, d)), fib], axis=1), t2)))

    # closedness: finite-difference exterior derivative on coordinate triples
    # (coordinate directions commute, so the cyclic-derivative formula applies)
    w_closed = 0.0
    if triple:
        e = np.moveaxis(np.eye(2 * d)[triple[0]], 1, 0)  # (3, samples, 2d)
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
    arrows = BundleSpec(G, ConnectionData.flat(2 * d, n), BoxBase(np.vstack([bundle.base.box] * 2)))
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

    # orbit connectivity: any two leaf points of J^{-1}(O)/G are joined by an arrow.  The arrow of T*Gamma from
    # z_from to z_to has w = g2 g1^-1 (Ad*_{w^-1} Ad*_{g1^-1} = Ad*_{g2^-1}) and (b1, b2) = (mu_from, -mu_from)
    mu_from, mu_to = (row_matvec(G.Ad_star_inv(el), orbit.mu0) for el in (g1, g2))
    arrow = PairClassPoint(to_m, g2 @ G.inverse(g1), from_m, to_a, mu_from, -from_a, -mu_from)
    z_from, z_to = np.concatenate([from_m, from_a, mu_from], axis=1), np.concatenate([to_m, to_a, mu_to], axis=1)
    w_conn = worst(row_norm(_pair_s(arrow) - z_from) + row_norm(pair_t(arrow) - z_to))

    # graph isotropy of the action map (Lagrangian by dimension count)
    y = PairClassPoint(y_m1, y_w, y_m2, y_a1, b1, y_a2, bsum - b1)
    w_iso = _graph_isotropy(bundle, y, (m1_0, w_0, a1_0), span, pairs)

    rep.add("target_poisson", w_t, 1e-6)
    rep.add("source_anti_poisson", w_s, 1e-6)
    rep.add("orbit_connectivity", w_conn, 1e-9)
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
