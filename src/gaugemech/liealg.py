"""Matrix Lie groups and algebras in concrete coordinates.

A group is a subgroup of GL(m, R) given by a basis e_1..e_n of its Lie
algebra (m x m matrices), closed under commutators (Hall, Lie Groups, Lie
Algebras, and Representations, 2nd ed., 2015, ch. 3); its structure constants
and its family of kernels are read off that basis.  Algebra vectors and
coalgebra vectors are plain float arrays of coordinates in the basis / dual
basis; the pairing between them is the coordinate dot product.

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
Symmetry, ch. 14).  Membership never comes from a name either: a built-in
group and a group read from JSON with the same basis take the same family's
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import schema
from .linalg import rank_gap
from .report import SuiteReport, worst

Array = np.ndarray

LOG_SERIES_CUTOFF = 1e-24
LOG_SERIES_RADIUS = 0.5
MAX_SQUARE_ROOTS = 48
MEMBERSHIP_TOL = 1e-8  # largest membership defect of an exponentiated algebra element (liealg.validate)
COMMUTATOR_TOL = 1e-12  # largest commutator entry off the span (liealg.validate), and JSON constant off the derived one
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


class NotClosedError(ValueError):
    """A basis whose commutators leave its span, by ``defect`` (``commutator_defect``): no Lie algebra."""

    def __init__(self, name: str, defect: float):
        super().__init__(f"'basis' of group {name!r} is not closed under commutators: they leave its span by {defect:.3g}")
        self.defect = defect


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
    return _rodrigues(a, *_rodrigues_factors(a), a @ a)


def _rodrigues_factors(a: Array) -> tuple[Array, Array]:
    """sin(theta)/theta and (1 - cos theta)/theta^2 of each antisymmetric matrix of a stack, shaped (..., 1, 1)."""
    coef = [_rodrigues_coefficients(row[7], row[2], row[3]) for row in a.reshape(-1, 9).tolist()]
    c1, c2 = np.array(coef).T.reshape((2,) + a.shape[:-2] + (1, 1))
    return c1, c2


def _rodrigues(a: Array, c1: Array, c2: Array, a2: Array) -> Array:
    # (I + c1 a) + c2 a^2, summed in that order
    out = c1 * a
    out += np.eye(3)
    out += c2 * a2
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


def _theta2(a: Array) -> Array:
    """theta^2 = a_21^2 + a_02^2 + a_10^2 of each antisymmetric 3x3 matrix of a stack, shaped (..., 1, 1),
    summed in the order of ``_rodrigues_coefficients``."""
    x, y, z = a[..., 2:3, 1:2], a[..., 0:1, 2:3], a[..., 1:2, 0:1]
    return x * x + y * y + z * z


def vee(a: Array) -> Array:
    """The vector (a_21, a_02, a_10) of each antisymmetric 3x3 matrix of a stack: a w = vee(a) x w."""
    return a[..., [2, 0, 1], [1, 2, 0]]


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
    factors, closed = _rotation_log_factors(g)
    anti = g - g.swapaxes(-1, -2)
    anti *= factors
    return anti, closed


def _rotation_log_factors(g: Array) -> tuple[Array, list[bool]]:
    """theta / (2 sin theta) of each row of ``rotation_log``, shaped (N, 1, 1) and 0 where the row is left to ``logm``."""
    defect = g.swapaxes(-1, -2) @ g
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
    return np.array(factors)[:, None, None], closed


# ---------------------------------------------------------------------------
# closed forms of rigid motions
# ---------------------------------------------------------------------------


def rigid_exp(a: Array, t: Array) -> tuple[Array, Array]:
    """exp of [[a, t], [0, 0]] in SE(3), for each antisymmetric 3x3 a and translation t (..., 3) of stacks.

    Returns the rotation R = exp(a) (``rodrigues``) and the translation V t with
    V = I + (1 - cos theta)/theta^2 a + (theta - sin theta)/theta^3 a^2 (Murray,
    Li & Sastry, A Mathematical Introduction to Robotic Manipulation, 1994,
    ch. 2).  The last coefficient is (1 - sin(theta)/theta)/theta^2, and
    1/6 - theta^2/120 below ROTATION_TAYLOR_THETA2.  Only the Rodrigues
    coefficients are per-row Python floats; each row has the bits of its
    one-row call.
    """
    c1, c2 = _rodrigues_factors(a)
    a2 = a @ a
    theta2 = _theta2(a)
    taylor = theta2 < ROTATION_TAYLOR_THETA2
    c3 = np.where(taylor, 1.0 / 6.0 - theta2 / 120.0, (1.0 - c1) / np.where(taylor, 1.0, theta2))
    # V t = t + (c2 a + c3 a^2) t
    vt = t + ((c2 * a + c3 * a2) @ t[..., None])[..., 0]
    return _rodrigues(a, c1, c2, a2), vt


def rigid_log(r: Array, t: Array) -> tuple[Array, Array, list[bool]]:
    """log of [[r, t], [0, 1]] in SE(3) for each rotation r (N, 3, 3) and translation t (N, 3): (a, V^-1 t, closed).

    a is ``rotation_log(r)`` and V^-1 = I - a/2 + c a^2 with c = (1 - (theta/2)
    cot(theta/2))/theta^2 (Murray, Li & Sastry 1994, ch. 2), formed as (1 -
    f (1 + cos theta))/theta^2 from the factor f = theta / (2 sin theta) of
    ``rotation_log`` and cos theta = (tr r - 1)/2, and as 1/12 + theta^2/720
    below ROTATION_TAYLOR_THETA2.  The rows ``rotation_log`` leaves to
    ``logm`` are flagged False and left unset.
    """
    factors, closed = _rotation_log_factors(r)
    a = r - r.swapaxes(-1, -2)
    a *= factors
    theta2 = _theta2(a)
    taylor = theta2 < ROTATION_TAYLOR_THETA2
    cos = 0.5 * (np.trace(r, axis1=-2, axis2=-1)[..., None, None] - 1.0)
    c = np.where(taylor, 1.0 / 12.0 + theta2 / 720.0, (1.0 - factors * (1.0 + cos)) / np.where(taylor, 1.0, theta2))
    # V^-1 t = t + (c a^2 - a/2) t
    return a, t + ((c * (a @ a) - 0.5 * a) @ t[..., None])[..., 0], closed


# hat(t) = t @ _HAT, reshaped to 3x3: the matrix of t x .; row i reshaped is the so3 basis matrix e_i
_HAT = np.array([[0, 0, 0, 0, 0, -1, 0, 1, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0], [0, -1, 0, 1, 0, 0, 0, 0, 0]], dtype=float)


def _rigid_matrix(r: Array, t: Array, corner: float) -> Array:
    """diag(r, [[r, t], [0, corner]]) per row of stacks: a group element for corner 1, an algebra element for 0."""
    out = np.zeros(r.shape[:-2] + (7, 7))
    out[..., :3, :3] = out[..., 3:6, 3:6] = r
    out[..., 3:6, 6] = t
    out[..., 6, 6] = corner
    return out


def _sqrtm(a: Array) -> Array:
    """Principal square root via the Denman-Beavers iteration.

    Returns the first of 80 iterates with residual ||y^2 - a|| <= 1e-13 * max(1, ||a||).
    Near an eigenvalue -1 the reachable residual is about eps / distance, so
    when no iterate meets 1e-13 the best one is returned if its residual is
    <= SQRTM_ACCEPT_TOL * max(1, ||a||); otherwise LieDomainError.
    """
    y = np.asarray(a, dtype=float)
    z = np.eye(a.shape[0])
    scale = max(1.0, np.linalg.norm(a))
    best, best_res = None, np.inf
    for _ in range(80):
        try:
            yi = np.linalg.inv(y)
            zi = np.linalg.inv(z)
        except np.linalg.LinAlgError as exc:
            raise LieDomainError("matrix square root iteration became singular") from exc
        y, z = 0.5 * (y + zi), 0.5 * (z + yi)
        res = np.linalg.norm(y @ y - a)
        if res <= 1e-13 * scale:
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
    """A matrix Lie group given by its algebra basis, of shape (dim, embed, embed).

    Construction reads everything else off the basis, once, and never off the
    name; specs are immutable after construction.  ``structure[i, j, k]`` is
    c^k_ij in [e_i, e_j] = sum_k c^k_ij e_k, solved from the Gram system
    (F F^T) c = F vec([e_i, e_j]) of the flattened basis F: exact for integer
    bases such as so3 and so3 x| r3.  A basis that is not finite or not
    linearly independent (the package's rank rule, ``linalg.rank_gap`` at
    1e-10) is a ValueError naming it, and one whose commutators leave its
    span by more than COMMUTATOR_TOL a NotClosedError.  ``abelian`` when
    every constant is zero; then Ad_g = I.  The basis picks one family (``_family_of``) that
    gives ``exp``, ``log``, ``inverse``, ``Ad`` and the membership residual,
    in closed form for rotations, unipotent groups and rigid motions.  Every
    closed form takes a stack at once, and each row has the bits of its
    one-row call.
    """

    name: str
    dim: int
    embed: int
    basis: Array
    structure: Array = field(init=False)
    abelian: bool = field(init=False)
    _basis_pinv: Array = field(init=False, repr=False)
    _family: _Generic = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.basis = np.asarray(self.basis, dtype=float).reshape(self.dim, self.embed, self.embed)
        if not np.isfinite(self.basis).all():
            raise ValueError(f"'basis' entries of group {self.name!r} must be finite")
        flat = self.basis.reshape(self.dim, -1)
        rank = int(rank_gap(flat, 1e-10).rank)
        if rank < self.dim:
            raise ValueError(f"'basis' matrices of group {self.name!r} are linearly dependent (rank {rank} of {self.dim})")
        with np.errstate(over="ignore", invalid="ignore"):
            prod = self.basis[:, None] @ self.basis[None, :]
            comm = (prod - prod.swapaxes(0, 1)).reshape(self.dim * self.dim, -1)
            self.structure = np.linalg.solve(flat @ flat.T, flat @ comm.T).T.reshape((self.dim,) * 3)
        if not np.isfinite(self.structure).all():
            raise ValueError(f"'basis' of group {self.name!r} is too large: its commutators overflow")
        off = commutator_defect(self)
        if not off <= COMMUTATOR_TOL:
            raise NotClosedError(self.name, off)
        self.abelian = not self.structure.any()
        self._basis_pinv = np.linalg.pinv(flat)
        self._family = _family_of(self)

    # -- coordinates --------------------------------------------------------

    def from_coords(self, x: Array) -> Array:
        """The algebra matrix of coordinates x, or of each row of a stack (..., dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"dimension mismatch: expected (..., {self.dim}), got {x.shape}")
        return (x[..., None, :] @ self.basis.reshape(self.dim, -1)).reshape(x.shape[:-1] + (self.embed, self.embed))

    def to_coords(self, mat: Array, check: bool = True) -> Array:
        """Coordinates of an algebra matrix, or of each of a stack (..., embed, embed).

        With ``check``, LieDomainError when a matrix is off the algebra span by
        more than 1e-8 relative to its Frobenius norm (at least 1).
        """
        mat = np.asarray(mat, dtype=float)
        flat = mat.reshape(mat.shape[:-2] + (-1,))
        x = (flat[..., None, :] @ self._basis_pinv)[..., 0, :]  # one vector-matrix product per row
        if check:
            off = flat - x @ self.basis.reshape(self.dim, -1)  # the part of each matrix off the span, squared below
            sq = np.vecdot(off, off)
            bad = sq > 1e-8 * 1e-8 * np.maximum(1.0, np.vecdot(flat, flat))
            if bad.any():
                raise LieDomainError(f"matrix not in the algebra span of {self.name} (residual {math.sqrt(np.max(sq[bad])):.2e})")
        return x

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
        """g^-1 of a group element or of each of a stack (..., embed, embed), by the family's inverse."""
        return self._family.inverse(np.asarray(g, dtype=float))

    def Ad(self, g: Array) -> Array:
        """Matrix of Ad_g (conjugation) on algebra coordinates, one per element of a stack.

        Column i holds the coordinates of g e_i g^-1: the identity for an
        abelian group, else the family's Ad.
        """
        return self._adjoint(g, inverted=False)

    def Ad_inv(self, g: Array) -> Array:
        """Matrix of Ad_{g^-1}, formed as g^-1 e_i g."""
        return self._adjoint(g, inverted=True)

    def _adjoint(self, g: Array, inverted: bool) -> Array:
        g = np.asarray(g, dtype=float)
        if self.abelian:
            return np.broadcast_to(np.eye(self.dim), g.shape[:-2] + (self.dim, self.dim)).copy()
        return self._family.Ad(g, inverted)

    def conjugation(self, left: Array, right: Array) -> Array:
        """Matrix of x -> left x right on algebra coordinates, one per pair of broadcast stacks.

        Column i holds the coordinates of left e_i right: all basis matrices are
        conjugated in one batched product and projected with the cached basis
        pseudo-inverse in one matmul.  Ad_g is conjugation(g, g^-1); ``left``
        and ``right`` may be any pair that maps the algebra to itself, such as
        the conjugators R(l) and R(l)^-1 of a semidirect product.
        """
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
        """exp of algebra coordinates x, or of each row of a stack (..., dim): the family's closed form, else ``expm``."""
        return (self._family.exp or expm)(self.from_coords(x))

    def log(self, g: Array) -> Array:
        """log of a group element, or of each of a stack (..., embed, embed), in algebra coordinates.

        The family's closed form; the rows it leaves, and every row of a
        generic group, take ``logm`` one at a time.  Each row has the bits of
        its single call.
        """
        g = np.asarray(g, dtype=float)
        rows = g.reshape((-1,) + g.shape[-2:])
        a, closed = self._family.log(rows)
        for i in (i for i, ok in enumerate(closed) if not ok):
            a[i] = logm(rows[i])
        return self.to_coords(a.reshape(g.shape))

    def identity(self) -> Array:
        return np.eye(self.embed)

    # -- membership and sampling ---------------------------------------------

    def membership_defect(self, g: Array) -> float:
        """The family's residual of an embed x embed matrix, 0 on the group; inf for another shape."""
        g = np.asarray(g, dtype=float)
        if g.shape != (self.embed, self.embed):
            return float("inf")
        return self._family.membership(g)

    def random_algebra(self, rng: np.random.Generator, scale: float = 0.5, lead: tuple[int, ...] = ()) -> Array:
        """Algebra coordinates of scale times a standard normal, or a block of them of leading shape ``lead``."""
        return scale * rng.standard_normal(lead + (self.dim,))


def _null_rows(a: Array) -> Array:
    """Rows spanning the null space of a, ``C ker(R a C)`` of its equilibration."""
    r = rank_gap(a, 1e-10)
    return np.ldexp(r.vt[r.rank :], r.col)


def _rref(rows: Array) -> Array:
    """Reduced row-echelon form, unit pivots, of linearly independent rows."""
    r = np.array(rows, dtype=float)
    lead = 0
    for i in range(r.shape[0]):
        while np.max(np.abs(r[i:, lead])) <= 1e-9:
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
# group families: the kernels and the membership residual a basis selects
# ---------------------------------------------------------------------------


def _family_of(spec: LieGroupSpec) -> _Generic:
    """The one family of ``spec``'s basis: rotations, unipotent, rigid motions, else generic."""
    basis = spec.basis
    if spec.embed == 3 and np.array_equal(basis, -basis.swapaxes(-1, -2)):
        return _Rotation(spec)
    order = _series_order(basis)
    if order:
        return _Unipotent(spec, order)
    if spec.embed == 7:
        w, v = basis[:, 3:6, 3:6], basis[:, 3:6, 6]
        if np.array_equal(basis, _rigid_matrix(w, v, 0.0)) and np.array_equal(w, -w.swapaxes(-1, -2)):
            return _RigidMotion(spec, np.concatenate([vee(w).T, v.T]) + 0.0)  # + 0.0: no negative zeros in the frame
    return _Generic(spec)


def _series_order(mats: Array) -> int:
    """The least p such that every product of p matrices with the joint nonzero pattern of the stack ``mats`` is
    zero, or 0 when the pattern is not nilpotent (a nilpotent pattern of side m has p <= m)."""
    step = mats.any(axis=0).astype(int)
    power, p = step, 1
    while power.any():
        if p == len(step):
            return 0
        power, p = np.minimum(power @ step, 1), p + 1
    return p


def _rotation_defect(r: Array) -> float:
    return float(np.linalg.norm(r.T @ r - _EYE3) + abs(np.linalg.det(r) - 1.0))


class _Generic:
    """A group without closed forms: ``LieGroupSpec.exp`` and ``log`` take ``expm`` and ``logm``, the inverse is
    ``np.linalg.inv`` (the transpose for an antisymmetric basis, an orthogonal group) and Ad_g the conjugation
    (g, g^-1) of the basis.  The closed-form families below override what they have.

    Membership is ``defect``, the residual of the family's own group (none
    here), plus, when the basis may span less than the family's algebra
    (``proper``: always here, and for a subgroup such as the rotations about
    one axis), the log-and-expand residual |exp(log g) - g|, which charges
    the part of the log off the span (inf where the log fails or leaves the
    span).
    """

    exp = None  # the closed-form exp of algebra matrices, per matrix of a stack
    proper = True

    def __init__(self, spec: LieGroupSpec) -> None:
        self.spec = spec
        self.orthogonal = np.array_equal(spec.basis, -spec.basis.swapaxes(-1, -2))

    def log(self, rows: Array) -> tuple[Array, list[bool]]:
        """Algebra matrices of the closed-form logs of a stack (N, m, m), and which rows the closed form took."""
        return np.empty_like(rows), [False] * len(rows)

    def inverse(self, g: Array) -> Array:
        return g.swapaxes(-1, -2) if self.orthogonal else np.linalg.inv(g)

    def Ad(self, g: Array, inverted: bool) -> Array:
        """Ad_g, or Ad_{g^-1} when ``inverted``, per element of a stack."""
        gi = self.inverse(g)
        return self.spec.conjugation(gi, g) if inverted else self.spec.conjugation(g, gi)

    def defect(self, _g: Array) -> float:
        return 0.0

    def membership(self, g: Array) -> float:
        if not self.proper:
            return self.defect(g)
        try:
            x = self.spec.log(g)
        except LieDomainError:
            return float("inf")
        return self.defect(g) + float(np.linalg.norm(self.spec.exp(x) - g))


class _Rotation(_Generic):
    """Rotations, from 3x3 antisymmetric basis matrices: Rodrigues' ``exp``, ``rotation_log``, the transpose as
    inverse and Ad_g = P^+ g P with P the columns vee(e_i); defect |g^T g - I| + |det g - 1|."""

    def __init__(self, spec: LieGroupSpec) -> None:
        super().__init__(spec)
        self.vees = vee(spec.basis).T
        self.vees_pinv = np.linalg.pinv(self.vees)
        self.proper = spec.dim < 3

    def exp(self, a: Array) -> Array:
        return rodrigues(a)

    def log(self, rows: Array) -> tuple[Array, list[bool]]:
        return rotation_log(rows)

    def Ad(self, g: Array, inverted: bool) -> Array:
        return self.vees_pinv @ (g.swapaxes(-1, -2) if inverted else g) @ self.vees

    defect = staticmethod(_rotation_defect)


class _Unipotent(_Generic):
    """A unipotent group, from basis matrices whose joint nonzero pattern is nilpotent of order p (a^p = 0 for
    every algebra element a): ``exp``, ``log`` and ``inverse`` as finite series, and the generic Ad with that
    inverse.  Its algebra is that of the matrices on the closure of the pattern (the entries some product of
    pattern matrices reaches); the defect is the norm of g - I off the closure."""

    def __init__(self, spec: LieGroupSpec, order: int) -> None:
        super().__init__(spec)
        self.order = order
        # exp of the 0/1 pattern is 1 on the diagonal and positive exactly on the closure
        step = spec.basis.any(axis=0).astype(float)
        self.closure = self.exp(step) > np.eye(len(step))
        self.proper = spec.dim < np.count_nonzero(self.closure)

    def exp(self, a: Array) -> Array:
        """exp(a) = I + a + a^2/2 + ... + a^(p-1)/(p-1)!, per matrix of a stack; summed as ``expm`` sums its
        a^3 = 0 exit, so at order 3 and below it has the bits of ``expm``."""
        out = a + np.eye(a.shape[-1])
        term = a
        for k in range(2, self.order):
            term = term @ a
            out += term / math.factorial(k)
        return out

    def log(self, rows: Array) -> tuple[Array, list[bool]]:
        """log(g) = n - n^2/2 + n^3/3 - ... with n = g - I, per matrix of a stack; every row is closed."""
        n = rows - np.eye(rows.shape[-1])
        out, term = n.copy(), n
        for k in range(2, self.order):
            term = term @ n
            out += term * ((-1.0) ** (k + 1) / k)
        return out, [True] * len(rows)

    def inverse(self, g: Array) -> Array:
        """g^-1 = I - n + n^2 - ... with n = g - I, per matrix of a stack (2I - g when n^2 = 0)."""
        eye = np.eye(g.shape[-1])
        step = eye - g
        out, term = eye + step, step
        for _ in range(2, self.order):
            term = term @ step
            out += term
        return out

    def defect(self, g: Array) -> float:
        return float(np.linalg.norm(g - np.where(self.closure, g, np.eye(len(g)))))


class _RigidMotion(_Generic):
    """Rigid motions, from basis matrices that are all diag(W, [[W, v], [0, 0]]) with W antisymmetric 3x3: SE(3),
    or a subgroup, in the 7x7 embedding of a rotation group x| R^3 (Murray, Li & Sastry, A Mathematical
    Introduction to Robotic Manipulation, 1994, ch. 2).

    An element is diag(R, [[R, t], [0, 1]]) and the algebra element of
    coordinates x is diag(W, [[W, v], [0, 0]]) with (vee(W), v) = F x, the
    columns of the frame F being (vee(W_i), v_i) of the basis.  exp and log
    are the SE(3) forms of the lower block (``rigid_exp``, ``rigid_log``),
    the inverse is [[R^T, -R^T t], [0, 1]] in that block and R^T in the upper
    one, and Ad_h = F^+ [[R, 0], [hat(t) R, R]] F, skipped when F is the
    identity.  The defect is the rotation defect of R plus the distance of h
    from diag(R, [[R, t], [0, 1]]).
    """

    def __init__(self, spec: LieGroupSpec, frame: Array) -> None:
        super().__init__(spec)
        self.frame = None if np.array_equal(frame, np.eye(6)) else (np.linalg.pinv(frame), frame)
        self.proper = spec.dim < 6

    def exp(self, a: Array) -> Array:
        return _rigid_matrix(*rigid_exp(a[..., 3:6, 3:6], a[..., 3:6, 6]), 1.0)

    def log(self, rows: Array) -> tuple[Array, list[bool]]:
        a, vt, closed = rigid_log(rows[:, 3:6, 3:6], rows[:, 3:6, 6])
        return _rigid_matrix(a, vt, 0.0), closed

    def inverse(self, h: Array) -> Array:
        rot = h[..., 3:6, 3:6].swapaxes(-1, -2)
        out = np.zeros(h.shape)
        out[..., :3, :3] = h[..., :3, :3].swapaxes(-1, -2)
        out[..., 3:6, 3:6] = rot
        out[..., 3:6, 6] = -(rot @ h[..., 3:6, 6:7])[..., 0]
        out[..., 6, 6] = 1.0
        return out

    def Ad(self, h: Array, inverted: bool) -> Array:
        h = self.inverse(h) if inverted else h
        rot = h[..., 3:6, 3:6]
        hat_t = (h[..., None, 3:6, 6] @ _HAT).reshape(h.shape[:-2] + (3, 3))
        out = np.zeros(h.shape[:-2] + (6, 6))
        out[..., :3, :3] = rot
        out[..., 3:, 3:] = rot
        out[..., 3:, :3] = hat_t @ rot
        if self.frame is None:
            return out
        frame_pinv, frame = self.frame
        return frame_pinv @ out @ frame

    def defect(self, h: Array) -> float:
        return _rotation_defect(h[:3, :3]) + float(np.linalg.norm(h - _rigid_matrix(h[:3, :3], h[3:6, 6], 1.0)))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def jacobi_defect(spec: LieGroupSpec) -> float:
    """Max norm of sum_cyc [[e_i,e_j],e_k] computed from structure constants, for all i, j, k at once."""
    c = spec.structure
    # nested[i, j, k] = [[e_i, e_j], e_k] = sum_l c^l_ij [e_l, e_k]; the cyclic sum adds nested[j, k, i] and nested[k, i, j]
    nested = np.einsum("ijl,lkm->ijkm", c, c)
    return worst(np.abs(nested + nested.transpose(2, 0, 1, 3) + nested.transpose(1, 2, 0, 3)))


def commutator_defect(spec: LieGroupSpec) -> float:
    """Largest entry of [e_i, e_j] - sum_k c^k_ij e_k over all i, j at once: how far the commutators leave the span."""
    prod = spec.basis[:, None] @ spec.basis[None, :]
    return worst(np.abs(prod - prod.swapaxes(0, 1) - spec.from_coords(spec.structure)))


def validate_spec(spec: LieGroupSpec, seed: int = 0) -> SuiteReport:
    """Run all LieGroupSpec invariants; returns residuals, never raises."""
    from .rng import stream

    rep = SuiteReport(f"liealg.validate[{spec.name}]")
    anti = float(np.max(np.abs(spec.structure + np.transpose(spec.structure, (1, 0, 2)))))
    rep.add("antisymmetry", anti, 1e-12)
    rep.add("jacobi", jacobi_defect(spec), 1e-12)

    basis = rank_gap(spec.basis.reshape(spec.dim, -1), 1e-10)
    rep.flag("basis_independence", basis.rank == spec.dim, rank=int(basis.rank), min_singular_value=float(basis.s[-1]))

    rep.add("structure_vs_commutator", commutator_defect(spec), COMMUTATOR_TOL)

    rng = stream(seed, f"liealg.validate/{spec.name}")
    w_exp = worst(*map(spec.membership_defect, spec.exp(spec.random_algebra(rng, 0.5, (8,)))))
    rep.add("exp_lands_in_group", w_exp, MEMBERSHIP_TOL)
    return rep


# ---------------------------------------------------------------------------
# built-in groups
# ---------------------------------------------------------------------------


def so3() -> LieGroupSpec:
    """SO(3) with the standard basis, [e_1, e_2] = e_3 (c^3_12 = 1)."""
    return LieGroupSpec("so3", 3, 3, _HAT.reshape(3, 3, 3).copy())


def translation_group(n: int) -> LieGroupSpec:
    """Abelian R^n as (n+1)x(n+1) unipotent matrices [[I, v], [0, 1]]."""
    basis = np.zeros((n, n + 1, n + 1))
    basis[range(n), range(n), n] = 1.0
    return LieGroupSpec(f"r{n}", n, n + 1, basis)


def torus(n: int) -> LieGroupSpec:
    """T^n as block-diagonal 2x2 rotations; angles wrap by construction."""
    basis = np.zeros((n, 2 * n, 2 * n))
    for i in range(n):
        basis[i, 2 * i, 2 * i + 1] = -1.0
        basis[i, 2 * i + 1, 2 * i] = 1.0
    return LieGroupSpec(f"t{n}", n, 2 * n, basis)


def heisenberg3() -> LieGroupSpec:
    """Heisenberg group of 3x3 unitriangular matrices; [e_1, e_2] = e_3."""
    basis = np.zeros((3, 3, 3))
    basis[0, 0, 1] = 1.0
    basis[1, 1, 2] = 1.0
    basis[2, 0, 2] = 1.0
    return LieGroupSpec("heisenberg3", 3, 3, basis)


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
# JSON loading
# ---------------------------------------------------------------------------


def spec_from_json(doc: dict) -> LieGroupSpec:
    """A group from its JSON document; ConfigError for a malformed one.

    ``basis`` holds ``dim`` row-major ``embed`` x ``embed`` matrices and
    ``structure`` the nonzero [i, j, k, c^k_ij], every index in [0, dim).  The
    constants come from the basis; ``structure`` is a cross-check, and a
    document whose constants differ from the derived ones by more than
    COMMUTATOR_TOL is a ConfigError naming it.  Membership is the residual of
    the family the basis selects, as for a built-in group, whatever the
    ``name``.
    """
    name = schema.text("name", doc.get("name"))
    dim, embed = schema.integer("dim", doc.get("dim")), schema.integer("embed", doc.get("embed"))
    basis = schema.array("basis", doc.get("basis"), (dim, embed * embed)).reshape(dim, embed, embed)
    structure = np.zeros((dim, dim, dim))
    for entry in schema.items("structure", doc.get("structure")):
        i, j, k, c = schema.items("structure", entry, 4, 4)
        structure[tuple(schema.integer("structure", x, 0, dim) for x in (i, j, k))] = schema.number("structure", c)
    spec = LieGroupSpec(name, dim, embed, basis)
    gap = float(np.max(np.abs(structure - spec.structure)))
    if not gap <= COMMUTATOR_TOL:
        raise schema.ConfigError(f"'structure' of group {name!r} differs from the constants its basis gives by {gap:.3g}")
    return spec
