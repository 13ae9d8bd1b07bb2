"""Straight-line float code for Hamiltonian flows: the RK4 step that ``dynamics.integrate`` runs, and exact affine gradients.

The generated source sums only the nonzero terms of the bivector of a
``poisson.PoissonSpace`` and, when a ``poisson.ScalarField`` declares one, of
its affine gradient A x + f, each sum in ascending index, with every float
written by ``repr`` so that it reads back to the same bits. This is the only
module that runs ``exec`` and ``compile``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .poisson import PoissonSpace, ScalarField

Array = np.ndarray


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


def affine_gradient(a: Array, f: Array) -> Callable[[Array], Array]:
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


def _field_source(space: PoissonSpace, hamiltonian: ScalarField, ys: Sequence[str]) -> tuple[list[str], list[str]]:
    """Source of the Hamiltonian vector field v = B(y) grad H(y) at the coordinates named ``ys``: (lines, rows).

    ``lines`` bind the gradient's locals g0, g1, ...; ``rows[i]`` is the
    expression of v_i in ``ys`` and those locals. v_i sums B_ij g_j in
    ascending j, and B_ij is sum_k linear_ijk y_k in ascending k plus
    const_ij, each sum over its nonzero terms only. With
    ``hamiltonian.affine`` = (A, f) the gradient g = A y + f is inlined as
    in ``affine_gradient``, and a g_j that vanishes for every y drops out;
    otherwise g is one call ``grad([y0, y1, ...])`` in numpy, with ``grad``
    bound by the caller. ``dynamics.ham_vector_field`` is the numpy reference.
    """
    n = space.dim
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
            b = _sum_source(space.linear[i, j].tolist(), ys, float(space.const[i, j]))
            if not (b and g):
                continue
            if not space.linear[i, j].any():
                terms.append(_term(float(space.const[i, j]), g))
            else:
                terms.append(_product(b if " " not in b else f"({b})", g))  # a term holds no space, a sum does
        rows.append(_join(terms) or "0.0")
    return lines, rows


# (space, hamiltonian, step) of the last pair compiled; holding the pair keeps their identities from being reused
_last_step: tuple = (None, None, None)


def compile_step(space: PoissonSpace, hamiltonian: ScalarField) -> Callable[[Sequence[float], float, float, float, int], list[tuple]]:
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
    the last (space, hamiltonian) pair compiled is kept and returned again
    for the same two objects (both are taken as immutable).
    """
    global _last_step
    if _last_step[0] is not space or _last_step[1] is not hamiltonian:
        n = space.dim
        xs, ys = [f"x{k}" for k in range(n)], [f"y{k}" for k in range(n)]
        at_x, at_y = _field_source(space, hamiltonian, xs), _field_source(space, hamiltonian, ys)
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
        _last_step = (space, hamiltonian, _compile("step", lines, {"grad": _nan_past_divergence(hamiltonian.gradient)}, "x, h, half, sixth, count"))
    return _last_step[2]
