"""Matrix Lie groups and algebras in concrete coordinates.

A group is a subgroup of GL(m, R) described by a basis e_1..e_n of its Lie
algebra (m x m matrices), the structure constants c^k_ij of that basis, and
a membership residual for group elements.  Algebra vectors and coalgebra
vectors are plain float arrays of coordinates in the basis / dual basis;
the pairing between them is the coordinate dot product.

Tangent data on a group is kept in left trivialization: a tangent vector at
g is stored as the algebra coordinates xi of the curve t -> g exp(t xi).
In this trivialization TL_g is the identity on coordinates and TR_g acts as
Ad_{g^-1}.

Coadjoint conventions (fixed package-wide): <Ad*_g mu, x> = <mu, Ad_g x>
and <ad*_x mu, y> = <mu, [x, y]>, i.e. transposes of Ad_g and ad_x in
coordinates.  Note Ad*: g -> Ad*_g is then an anti-homomorphism.

The linear and quadratic Casimirs of the Lie-Poisson structure on g* are
derived from the structure constants alone (``LieGroupSpec.casimirs``), never
from the group's name (Marsden & Ratiu, Introduction to Mechanics and
Symmetry, ch. 14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import schema
from .report import SuiteReport, worst

Array = np.ndarray

LOG_SERIES_CUTOFF = 1e-24
LOG_SERIES_RADIUS = 0.5
MAX_SQUARE_ROOTS = 48
# a square-root iterate that misses its tolerance is still used up to this relative residual
SQRTM_ACCEPT_TOL = 1e-8
CASIMIR_DECIMALS = 12
# closed-form rotation exp/log: Taylor coefficients below this theta^2; the log
# only for g with max|g^T g - I| <= ROTATION_ORTHO_TOL and angle <= pi - margin
ROTATION_TAYLOR_THETA2 = 1e-8
ROTATION_ORTHO_TOL = 1e-12
ROTATION_LOG_PI_MARGIN = 1e-6


class LieDomainError(ValueError):
    """Input lies outside the domain of the requested matrix map."""


# ---------------------------------------------------------------------------
# matrix exponential / logarithm (scaling-and-squaring, tiny dense matrices)
# ---------------------------------------------------------------------------


# Higham (2005): the largest 1-norm theta_m for which the diagonal Pade
# approximant r_m, m = 3, 5, 7, 9, 13, is accurate to unit roundoff, and the
# coefficients b_0..b_m of its numerator p_m(x) = sum_j b_j x^j.
_PADE_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068, 5.371920351148152)
_PADE_COEFFS = tuple(np.array(b, dtype=float) for b in (
    (120, 60, 12, 1),
    (30240, 15120, 3360, 420, 30, 1),
    (17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1),
    (17643225600, 8821612800, 2075673600, 302702400, 30270240, 2162160, 110880, 3960, 90, 1),
    (64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800, 129060195264000,
     10559470521600, 670442572800, 33522128640, 1323241920, 40840800, 960960, 16380, 182, 1),
))
# above this 1-norm the a^3 = 0 test in expm can overflow (|a^3|_1 <= |a|_1^3)
_EXPM_MAX_NORM = float(np.finfo(float).max) ** (1.0 / 3.0)
_EYE3 = np.eye(3)


def expm(a: Array) -> Array:
    """Matrix exponential by scaling and squaring with a Pade approximant.

    Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005: the 1-norm of ``a`` selects
    the diagonal Pade degree 3, 5, 7, 9 or 13; above theta_13 the argument is
    halved s = ceil(log2(|a|_1 / theta_13)) times and the result squared s
    times.  With p_m = U + V split into odd and even parts, r_m = (V - U)^-1 (V + U).
    When a^3 is exactly zero (heisenberg3, abelian translations) the series
    I + a + a^2/2 is returned exactly.

    ``a`` is one matrix or a stack (..., n, n); every matrix of a stack gets
    its own exit, degree and scaling, so each gives the bits of its single call.
    Raises LieDomainError for a non-finite matrix, for a 1-norm above
    _EXPM_MAX_NORM, and when the squarings overflow (the exponential, or the
    rounding error of a huge rotation angle, leaves the floating-point range).
    """
    a = np.asarray(a, dtype=float)
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    norms = np.abs(a).sum(axis=-2).max(axis=-1).tolist()
    if not all(map(math.isfinite, norms)):
        raise LieDomainError("matrix exponential of a non-finite matrix")
    if max(norms) > _EXPM_MAX_NORM:
        raise LieDomainError(f"matrix exponential of a matrix with 1-norm {max(norms):.3g} would overflow")
    a2 = a @ a
    # the rows of each exit: -1 for a^3 = 0, else the index of their Pade degree
    exits: dict[int, list[int]] = {}
    for i, pade in enumerate((a2 @ a).any(axis=(-2, -1)).tolist()):
        j = next((j for j, theta in enumerate(_PADE_THETA) if norms[i] <= theta), len(_PADE_THETA) - 1) if pade else -1
        exits.setdefault(j, []).append(i)
    if len(exits) == 1:
        (j,) = exits
        return _exp_rows(a, a2, norms, j).reshape(shape)
    out = np.empty_like(a)
    for j, rows in exits.items():
        out[rows] = _exp_rows(a[rows], a2[rows], [norms[i] for i in rows], j)
    return out.reshape(shape)


def _exp_rows(a: Array, a2: Array, norms: list[float], degree: int) -> Array:
    """exp of a stack of matrices a, with squares a2 and 1-norms norms, that share one exit:
    the exact series for degree -1, else the Pade approximant of that degree index."""
    n = a.shape[-1]
    if degree < 0:
        out = a + np.eye(n)
        out += 0.5 * a2
        return out
    b = _PADE_COEFFS[degree]
    # only the last degree scales: at 1-norms up to theta_13 every s is 0
    s = np.array([max(0, math.ceil(math.log2(v / _PADE_THETA[-1]))) for v in norms]) if degree == len(_PADE_THETA) - 1 else None
    scaled = s is not None and s.any()
    if scaled:
        scale = (2.0**s)[:, None, None]
        a, a2 = a / scale, a2 / (scale * scale)
    # even powers I, a^2, ..., a^(m-1) stacked, so U and V are one matmul each
    evens = np.empty((len(a), b.size // 2, n, n))
    evens[:, 0], evens[:, 1] = np.eye(n), a2
    for k in range(2, b.size // 2):
        np.matmul(evens[:, k - 1], a2, out=evens[:, k])
    flat = evens.reshape(len(a), b.size // 2, -1)
    u = a @ (b[1::2] @ flat).reshape(-1, n, n)
    v = (b[0::2] @ flat).reshape(-1, n, n)
    out = np.linalg.solve(v - u, v + u)
    if scaled:
        # the Pade phase cannot overflow at 1-norm <= theta_13; the squarings can
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(s.max()):
                out[s > k] = out[s > k] @ out[s > k]
        bad = np.flatnonzero(~np.isfinite(out).all(axis=(-2, -1)))
        if bad.size:
            raise LieDomainError(f"matrix exponential overflowed after {s[bad[0]]} squarings (1-norm {norms[bad[0]]:.3g})")
    return out


def rodrigues(a: Array) -> Array:
    """exp(a) of an antisymmetric 3x3 matrix a, or of each of a stack, by Rodrigues' formula.

    With theta^2 = a_21^2 + a_02^2 + a_10^2, exp(a) = I + sin(theta)/theta a +
    (1 - cos theta)/theta^2 a^2 (Gallier & Xu, Int. J. Robotics and Automation
    17(4), 2002); the second coefficient is formed as 2 sin^2(theta/2)/theta^2,
    which keeps its relative accuracy at small angles.  For theta^2 < 1e-8 both
    coefficients are their Taylor polynomials 1 - theta^2/6 and 1/2 -
    theta^2/24, truncated below unit roundoff.  The result is orthogonal to
    rounding at any angle.  Raises LieDomainError when theta^2 is not finite.
    """
    coef = [_rodrigues_coefficients(row[7], row[2], row[3]) for row in a.reshape(-1, 9).tolist()]
    c1, c2 = np.array(coef).T.reshape((2,) + a.shape[:-2] + (1, 1))
    # (I + c1 a) + c2 a^2, summed in that order
    out = c1 * a
    out += np.eye(3)
    out += c2 * (a @ a)
    return out


def _rodrigues_coefficients(x: float, y: float, z: float) -> tuple[float, float]:
    theta2 = x * x + y * y + z * z
    if not math.isfinite(theta2):
        raise LieDomainError(f"rotation exponential of a non-finite or overflowing angle (theta^2 = {theta2})")
    if theta2 < ROTATION_TAYLOR_THETA2:
        return 1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0
    theta = math.sqrt(theta2)
    half = math.sin(0.5 * theta) / (0.5 * theta)
    return math.sin(theta) / theta, 0.5 * half * half


def rotation_log(g: Array) -> tuple[Array, list[bool]]:
    """log of each 3x3 rotation of a stack (N, 3, 3) in closed form, and which rows it took.

    log(g) = theta / (2 sin theta) (g - g^T) with theta = atan2(sin, cos) from
    the antisymmetric part and the trace (Gallier & Xu 2002).  A row is left
    to ``logm`` (its flag False, its output row unset) when g is not
    orthogonal to ROTATION_ORTHO_TOL with positive determinant (a
    non-rotation is never projected onto one) and when theta lies within
    ROTATION_LOG_PI_MARGIN of pi, where the domain verdict belongs to
    ``logm``.  The per-row scalars are Python floats, so each row has the bits
    of its one-row call.
    """
    gt = g.swapaxes(-1, -2)
    defect = gt @ g
    defect -= _EYE3
    ortho = np.abs(defect, out=defect).reshape(-1, 9).max(axis=-1) <= ROTATION_ORTHO_TOL
    factors, closed = [], []
    for ok, (t0, t1, t2, t3, t4, t5, t6, t7, t8) in zip(ortho.tolist(), map(np.ndarray.tolist, g.reshape(-1, 9))):  # one row's floats at a time
        # the determinant of an orthogonal row is +-1 to rounding: its cofactor expansion has the sign of any other
        ok = ok and t0 * (t4 * t8 - t5 * t7) - t1 * (t3 * t8 - t5 * t6) + t2 * (t3 * t7 - t4 * t6) > 0.0
        if ok:
            # the entries (2, 1), (0, 2) and (1, 0) of g - g^T
            sin = 0.5 * math.sqrt((t7 - t5) ** 2 + (t2 - t6) ** 2 + (t3 - t1) ** 2)
            theta = math.atan2(sin, 0.5 * (t0 + t4 + t8 - 1.0))
            ok = theta <= math.pi - ROTATION_LOG_PI_MARGIN
        factor = 0.0
        if ok:
            theta2 = theta * theta
            factor = 0.5 + theta2 / 12.0 if theta2 < ROTATION_TAYLOR_THETA2 else 0.5 * theta / sin
        closed.append(ok)
        factors.append(factor)
    anti = g - gt
    anti *= np.array(factors)[:, None, None]
    return anti, closed


def _sqrtm(a: Array, tol: float = 1e-13, iters: int = 80) -> Array:
    """Principal square root via the Denman-Beavers iteration.

    Returns the first iterate with residual ||y^2 - a|| <= tol * max(1, ||a||).
    Near an eigenvalue -1 the reachable residual is about eps / distance, so
    when no iterate meets tol the best one is returned if its residual is
    <= SQRTM_ACCEPT_TOL * max(1, ||a||); otherwise LieDomainError.
    """
    y = np.asarray(a, dtype=float)
    z = np.eye(a.shape[0])
    scale = max(1.0, np.linalg.norm(a))
    best, best_res = None, np.inf
    for _ in range(iters):
        try:
            yi = np.linalg.inv(y)
            zi = np.linalg.inv(z)
        except np.linalg.LinAlgError as exc:
            raise LieDomainError("matrix square root iteration became singular") from exc
        y, z = 0.5 * (y + zi), 0.5 * (z + yi)
        res = np.linalg.norm(y @ y - a)
        if res <= tol * scale:
            return y
        if res < best_res:
            best, best_res = y, res
    if best_res <= SQRTM_ACCEPT_TOL * scale:
        return best
    raise LieDomainError("matrix square root did not converge (eigenvalue near the negative real axis?)")


def logm(g: Array) -> Array:
    """Matrix logarithm by inverse scaling-and-squaring.

    Repeated principal square roots bring the argument within
    ||a - I|| < 0.5 of the identity, then the Mercator series applies.
    Raises LieDomainError outside the injectivity radius (e.g. a rotation
    by pi, whose principal square root does not exist).
    """
    a = np.asarray(g, dtype=float)
    eye = np.eye(a.shape[0])
    dist = np.linalg.norm(a - eye)
    # within Frobenius distance LOG_SERIES_RADIUS < 1 of I every eigenvalue lies in
    # that disc around 1, off the negative axis; a NaN distance takes the eigvals path
    if not dist < LOG_SERIES_RADIUS:
        eigs = np.linalg.eigvals(a)
        on_negative_axis = (eigs.real <= 0.0) & (np.abs(eigs.imag) <= 1e-12 * np.abs(eigs) + 1e-14)
        if np.any(on_negative_axis):
            raise LieDomainError("logarithm outside injectivity radius (eigenvalue on the negative real axis)")
    k = 0
    while dist >= LOG_SERIES_RADIUS:
        if k >= MAX_SQUARE_ROOTS:
            raise LieDomainError("logarithm outside injectivity radius")
        a = _sqrtm(a)
        k += 1
        dist = np.linalg.norm(a - eye)
    w = a - eye
    term = eye
    out = np.zeros_like(a)
    for j in range(1, 120):
        term = term @ w
        out = out + ((-1.0) ** (j + 1)) * term / j
        if np.linalg.norm(term) < LOG_SERIES_CUTOFF:
            break
    return (2.0**k) * out


# ---------------------------------------------------------------------------
# group specification
# ---------------------------------------------------------------------------


@dataclass
class LieGroupSpec:
    """A matrix Lie group with an explicit algebra basis.

    ``basis`` has shape (dim, embed, embed); ``structure[i, j, k]`` is c^k_ij
    in [e_i, e_j] = sum_k c^k_ij e_k.  ``membership_residual`` maps an
    m x m matrix to a nonnegative defect (0 on the group); when absent, a
    generic test via log-and-expand is used.  Specs are immutable after
    construction.
    """

    name: str
    dim: int
    embed: int
    basis: Array
    structure: Array
    membership_residual: Callable[[Array], float] | None = None
    membership_tol: float = 1e-8
    _basis_pinv: Array = field(init=False, repr=False)
    _off_span: Array = field(init=False, repr=False)
    _rotation_basis: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.basis = np.asarray(self.basis, dtype=float).reshape(self.dim, self.embed, self.embed)
        self.structure = np.asarray(self.structure, dtype=float).reshape(self.dim, self.dim, self.dim)
        for name in ("basis", "structure"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name!r} entries of group {self.name!r} must be finite")
        flat = self.basis.reshape(self.dim, -1)
        self._basis_pinv = np.linalg.pinv(flat)
        self._off_span = np.eye(flat.shape[1]) - self._basis_pinv @ flat
        # 3x3 antisymmetric basis matrices: exp and log have closed forms (Rodrigues)
        self._rotation_basis = self.embed == 3 and np.array_equal(self.basis, -np.transpose(self.basis, (0, 2, 1)))

    # -- coordinates --------------------------------------------------------

    def from_coords(self, x: Array) -> Array:
        """The algebra matrix of coordinates x, or of each row of a stack (..., dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"dimension mismatch: expected (..., {self.dim}), got {x.shape}")
        return (x[..., None, :] @ self.basis.reshape(self.dim, -1)).reshape(x.shape[:-1] + (self.embed, self.embed))

    def to_coords(self, mat: Array, check: bool = True, tol: float = 1e-8) -> Array:
        """Coordinates of an algebra matrix, or of each of a stack (..., embed, embed).

        With ``check``, LieDomainError when a matrix is off the algebra span by
        more than ``tol`` relative to its Frobenius norm (at least 1).
        """
        mat = np.asarray(mat, dtype=float)
        flat = mat.reshape(mat.shape[:-2] + (-1,))
        x = (flat[..., None, :] @ self._basis_pinv)[..., 0, :]  # one vector-matrix product per row
        if check:
            off = flat @ self._off_span  # the part of each matrix off the span, squared below
            sq = np.vecdot(off, off)
            bad = sq > tol * tol * np.maximum(1.0, np.vecdot(flat, flat))
            if bad.any():
                raise LieDomainError(f"matrix not in the algebra span of {self.name} (residual {math.sqrt(np.max(sq[bad])):.2e})")
        return x

    def pair(self, mu: Array, x: Array) -> float:
        """Dual pairing <mu, x>: the coordinate dot product."""
        return float(np.dot(mu, x))

    # -- brackets and adjoints ----------------------------------------------

    def bracket(self, x: Array, y: Array) -> Array:
        """[x, y] in algebra coordinates, per row of stacks (..., dim) that broadcast."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[-1:] != (self.dim,) or y.shape[-1:] != (self.dim,):
            raise ValueError("dimension mismatch in bracket")
        return np.einsum("ijk,...i,...j->...k", self.structure, x, y)

    def ad(self, x: Array) -> Array:
        """Matrix of ad_x = [x, .] on algebra coordinates, one per row of a stack (..., dim)."""
        return np.einsum("ijk,...i->...kj", self.structure, np.asarray(x, dtype=float))

    def ad_star(self, x: Array) -> Array:
        """Matrix of ad*_x on coalgebra coordinates: <ad*_x mu, y> = <mu,[x,y]>."""
        return self.ad(x).swapaxes(-1, -2)

    def inverse(self, g: Array) -> Array:
        """g^-1 of a group element or of each of a stack (..., embed, embed).

        The transpose for a basis of antisymmetric 3x3 matrices (the group is
        SO(3)), otherwise one stacked ``np.linalg.inv``.
        """
        g = np.asarray(g, dtype=float)
        return g.swapaxes(-1, -2) if self._rotation_basis else np.linalg.inv(g)

    def Ad(self, g: Array) -> Array:
        """Matrix of Ad_g (conjugation) on algebra coordinates, one per element of a stack.

        Column i holds the coordinates of g e_i g^-1: all basis matrices are
        conjugated in one batched product and projected with the cached basis
        pseudo-inverse in one matmul.
        """
        return self._conjugate(g, self.inverse(g))

    def Ad_inv(self, g: Array) -> Array:
        """Matrix of Ad_{g^-1}, formed as g^-1 e_i g."""
        return self._conjugate(self.inverse(g), g)

    def _conjugate(self, left: Array, right: Array) -> Array:
        conj = left[..., None, :, :] @ self.basis @ right[..., None, :, :]
        return (conj.reshape(conj.shape[:-2] + (-1,)) @ self._basis_pinv).swapaxes(-1, -2)

    def Ad_star(self, g: Array) -> Array:
        """Matrix of Ad*_g on coalgebra coordinates: <Ad*_g mu, x> = <mu, Ad_g x>."""
        return self.Ad(g).swapaxes(-1, -2)

    def Ad_star_inv(self, g: Array) -> Array:
        """Matrix of Ad*_{g^-1} (see ``Ad_inv``)."""
        return self.Ad_inv(g).swapaxes(-1, -2)

    def coadjoint_chain_rule(self, trans: Array, grad: Array, b: Array) -> Array:
        """Derivatives of u -> H(Ad*_{u^-1} b) along the curves u exp(t e_j).

        ``trans`` is Ad*_{u^-1} and ``grad`` the gradient of H at trans @ b;
        component j is <grad, -trans ad*_{e_j} b>.  One per row of stacks
        (..., dim, dim), (..., dim) and (..., dim).
        """
        return -np.einsum("jlk,...l,...k->...j", self.structure, (np.swapaxes(trans, -1, -2) @ grad[..., None])[..., 0], b)

    # -- Casimirs of the Lie-Poisson structure ------------------------------

    @cached_property
    def casimirs(self) -> tuple[Array, Array]:
        """Linear and quadratic Casimirs of g*, derived once from the structure constants.

        Returns ``(linear, quadratic)``: rows x of ``linear`` give the Casimirs
        mu -> <mu, x>, with x spanning the centre of g; the symmetric matrices
        Q of ``quadratic`` give mu -> mu^T Q mu, spanning the ad-invariant
        quadratic forms modulo products of the linear Casimirs.  Both are in
        reduced row-echelon form with unit pivots (quadratics in the monomial
        coefficients of mu_a mu_b, a <= b), rounded to CASIMIR_DECIMALS, so
        the standard bases give exact coefficients such as |mu|^2 for so3.
        """
        n = self.dim
        c = self.structure
        # centre: [e_i, x] = sum_j x_j c^k_ij = 0 for all i, k
        linear = _rref(_null_rows(np.transpose(c, (0, 2, 1)).reshape(n * n, n)))

        # d/dt C along every Hamiltonian flow: sum_{i,k,l} c^k_ij Q_il mu_k mu_l = 0 for all j, mu
        rows, cols = np.triu_indices(n)
        mono = np.zeros((rows.size, n, n))
        mono[np.arange(rows.size), rows, cols] = 0.5
        mono[np.arange(rows.size), cols, rows] += 0.5
        m = np.einsum("ijk,pil->pjkl", c, mono)
        invariance = (m + np.transpose(m, (0, 1, 3, 2))).reshape(rows.size, -1).T
        # exclude products of linear Casimirs: orthogonal to their monomial coefficients
        prods = [np.outer(x, y) for a, x in enumerate(linear) for y in linear[a:]]
        prod_rows = [(p + p.T - np.diag(np.diag(p)))[rows, cols] for p in prods]
        coef = _rref(_null_rows(np.vstack([invariance, *prod_rows])))
        quadratic = np.zeros((coef.shape[0], n, n))
        quadratic[:, rows, cols] = coef
        quadratic = 0.5 * (quadratic + np.transpose(quadratic, (0, 2, 1)))
        return linear, quadratic

    # -- exponential map ------------------------------------------------------

    def exp(self, x: Array) -> Array:
        """exp of algebra coordinates x, or of each row of a stack (..., dim)."""
        a = self.from_coords(x)
        return rodrigues(a) if self._rotation_basis else expm(a)

    def log(self, g: Array) -> Array:
        """log of a group element, or of each of a stack (..., embed, embed), in algebra coordinates.

        Rotation rows take the closed form ``rotation_log``; the rows it
        leaves, and every row of other groups, take ``logm`` one at a time.
        Each row has the bits of its single call.
        """
        g = np.asarray(g, dtype=float)
        rows = g.reshape((-1,) + g.shape[-2:])
        if self._rotation_basis and g.shape[-2:] == (3, 3):
            a, closed = rotation_log(rows)
        else:
            a, closed = np.empty_like(rows), [False] * len(rows)
        for i in (i for i, ok in enumerate(closed) if not ok):
            a[i] = logm(rows[i])
        return self.to_coords(a.reshape(g.shape))

    def identity(self) -> Array:
        return np.eye(self.embed)

    # -- membership and sampling ---------------------------------------------

    def membership_defect(self, g: Array) -> float:
        g = np.asarray(g, dtype=float)
        if g.shape != (self.embed, self.embed):
            return float("inf")
        if self.membership_residual is not None:
            return float(self.membership_residual(g))
        try:
            x = self.log(g)
        except LieDomainError:
            return float("inf")
        return float(np.linalg.norm(self.exp(x) - g))

    def random_algebra(self, rng: np.random.Generator, scale: float = 0.5) -> Array:
        return scale * rng.standard_normal(self.dim)

    def random_coalgebra(self, rng: np.random.Generator, scale: float = 1.0) -> Array:
        return scale * rng.standard_normal(self.dim)


def _null_rows(a: Array, tol: float = 1e-10) -> Array:
    """Orthonormal rows spanning the null space of a."""
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > tol * max(float(s[0]), 1.0)))
    return vt[rank:]


def _rref(rows: Array, tol: float = 1e-9) -> Array:
    """Reduced row-echelon form, unit pivots, of linearly independent rows."""
    r = np.array(rows, dtype=float)
    lead = 0
    for i in range(r.shape[0]):
        while np.max(np.abs(r[i:, lead])) <= tol:
            lead += 1
        p = i + int(np.argmax(np.abs(r[i:, lead])))
        r[[i, p]] = r[[p, i]]
        r[i] /= r[i, lead]
        for j in range(r.shape[0]):
            if j != i:
                r[j] -= r[j, lead] * r[i]
        lead += 1
    return np.round(r, CASIMIR_DECIMALS)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def jacobi_defect(spec: LieGroupSpec) -> float:
    """Max norm of sum_cyc [[e_i,e_j],e_k] computed from structure constants."""
    w = 0.0
    eye = np.eye(spec.dim)
    for i in range(spec.dim):
        for j in range(spec.dim):
            for k in range(spec.dim):
                s = spec.bracket(spec.bracket(eye[i], eye[j]), eye[k])
                s = s + spec.bracket(spec.bracket(eye[j], eye[k]), eye[i])
                s = s + spec.bracket(spec.bracket(eye[k], eye[i]), eye[j])
                w = worst(w, float(np.max(np.abs(s))))
    return w


def validate_spec(spec: LieGroupSpec, seed: int = 0) -> SuiteReport:
    """Run all LieGroupSpec invariants; returns residuals, never raises."""
    from .rng import stream

    rep = SuiteReport(f"liealg.validate[{spec.name}]")
    anti = float(np.max(np.abs(spec.structure + np.transpose(spec.structure, (1, 0, 2)))))
    rep.add("antisymmetry", anti, 1e-12)
    rep.add("jacobi", jacobi_defect(spec), 1e-12)

    svals = np.linalg.svd(spec.basis.reshape(spec.dim, -1), compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    rep.add("basis_independence", 0.0 if rank == spec.dim else 1.0, 0.5, rank=rank, min_singular_value=float(svals[-1]))

    w_comm = 0.0
    for i in range(spec.dim):
        for j in range(spec.dim):
            comm = spec.basis[i] @ spec.basis[j] - spec.basis[j] @ spec.basis[i]
            w_comm = worst(w_comm, float(np.max(np.abs(comm - spec.from_coords(spec.structure[i, j])))))
    rep.add("structure_vs_commutator", w_comm, 1e-12)

    rng = stream(seed, f"liealg.validate/{spec.name}")
    w_exp = worst(*map(spec.membership_defect, spec.exp(np.array([spec.random_algebra(rng) for _ in range(8)]))))
    rep.add("exp_lands_in_group", w_exp, spec.membership_tol)
    return rep


# ---------------------------------------------------------------------------
# built-in groups
# ---------------------------------------------------------------------------


def _so3_membership(g: Array) -> float:
    return float(np.linalg.norm(g.T @ g - np.eye(3)) + abs(np.linalg.det(g) - 1.0))


def so3() -> LieGroupSpec:
    """SO(3) with the standard basis, [e_1, e_2] = e_3 (c^3_12 = 1)."""
    basis = np.zeros((3, 3, 3))
    basis[0] = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
    basis[1] = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
    basis[2] = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    structure = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        structure[i, j, k] = 1.0
        structure[j, i, k] = -1.0
    return LieGroupSpec("so3", 3, 3, basis, structure, _so3_membership)


def translation_group(n: int) -> LieGroupSpec:
    """Abelian R^n as (n+1)x(n+1) unipotent matrices [[I, v], [0, 1]]."""
    m = n + 1
    basis = np.zeros((n, m, m))
    for i in range(n):
        basis[i, i, n] = 1.0

    def membership(g: Array) -> float:
        model = np.eye(m)
        model[:n, n] = g[:n, n]
        return float(np.linalg.norm(g - model))

    return LieGroupSpec(f"r{n}", n, m, basis, np.zeros((n, n, n)), membership)


def torus(n: int) -> LieGroupSpec:
    """T^n as block-diagonal 2x2 rotations; angles wrap by construction."""
    m = 2 * n
    basis = np.zeros((n, m, m))
    for i in range(n):
        basis[i, 2 * i, 2 * i + 1] = -1.0
        basis[i, 2 * i + 1, 2 * i] = 1.0

    def membership(g: Array) -> float:
        defect = 0.0
        for i in range(n):
            blk = g[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
            defect += np.linalg.norm(blk.T @ blk - np.eye(2)) + abs(np.linalg.det(blk) - 1.0)
        mask = np.ones((m, m), dtype=bool)
        for i in range(n):
            mask[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = False
        defect += float(np.abs(g[mask]).sum())
        return float(defect)

    return LieGroupSpec(f"t{n}", n, m, basis, np.zeros((n, n, n)), membership)


def heisenberg3() -> LieGroupSpec:
    """Heisenberg group of 3x3 unitriangular matrices; [e_1, e_2] = e_3."""
    basis = np.zeros((3, 3, 3))
    basis[0, 0, 1] = 1.0
    basis[1, 1, 2] = 1.0
    basis[2, 0, 2] = 1.0
    structure = np.zeros((3, 3, 3))
    structure[0, 1, 2] = 1.0
    structure[1, 0, 2] = -1.0

    def membership(g: Array) -> float:
        model = np.eye(3)
        model[0, 1], model[1, 2], model[0, 2] = g[0, 1], g[1, 2], g[0, 2]
        return float(np.linalg.norm(g - model))

    return LieGroupSpec("heisenberg3", 3, 3, basis, structure, membership)


def builtin_group(name: str) -> LieGroupSpec:
    if name == "so3":
        return so3()
    if name == "heisenberg3":
        return heisenberg3()
    if name.startswith("r") and name[1:].isdigit():
        return translation_group(int(name[1:]))
    if name.startswith("t") and name[1:].isdigit():
        return torus(int(name[1:]))
    raise KeyError(f"unknown builtin group {name!r}")


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def spec_to_json(spec: LieGroupSpec) -> dict:
    entries = []
    for i in range(spec.dim):
        for j in range(spec.dim):
            for k in range(spec.dim):
                c = spec.structure[i, j, k]
                if c != 0.0:
                    entries.append([i, j, k, float(c)])
    return {
        "name": spec.name,
        "dim": spec.dim,
        "embed": spec.embed,
        "basis": [spec.basis[i].reshape(-1).tolist() for i in range(spec.dim)],
        "structure": entries,
    }


def spec_from_json(doc: dict) -> LieGroupSpec:
    """A group from the document of ``spec_to_json``; ConfigError for a malformed one.

    ``basis`` holds ``dim`` row-major ``embed`` x ``embed`` matrices and
    ``structure`` the nonzero [i, j, k, c^k_ij], every index in [0, dim).
    """
    name = schema.text("name", doc.get("name"))
    dim, embed = schema.integer("dim", doc.get("dim")), schema.integer("embed", doc.get("embed"))
    basis = schema.array("basis", doc.get("basis"), (dim, embed * embed)).reshape(dim, embed, embed)
    structure = np.zeros((dim, dim, dim))
    for entry in schema.items("structure", doc.get("structure")):
        i, j, k, c = schema.items("structure", entry, 4, 4)
        structure[tuple(schema.integer("structure", x, 0, dim) for x in (i, j, k))] = schema.number("structure", c)
    membership = None
    try:
        membership = builtin_group(name).membership_residual
    except KeyError:
        pass
    return LieGroupSpec(name, dim, embed, basis, structure, membership)
