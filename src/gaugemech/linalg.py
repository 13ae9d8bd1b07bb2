"""Per-row products; numerical rank, the one rank rule: equilibrate, then cut the singular values relative to the largest; exactness.

Equilibration is Ruiz's scaling (RAL-TR-2001-034, 2001) with powers of two, so the scaled matrix carries the bits of
the original and the decision does not depend on the units of rows and columns (Golub & Van Loan, 4th ed., §5.4.1).
"""

from dataclasses import dataclass

import numpy as np

from .report import worst

Array = np.ndarray


@dataclass(frozen=True)
class RankGap:
    """Rank of each matrix M of a stack, read off ``R M C`` with diagonal ``R`` and ``C = diag(2^col)``.

    ``s`` and ``vt`` are the singular values and right singular vectors of ``R M C``, and ``ker M = C ker(R M C)``
    with ``ker(R M C)`` spanned by the rows of ``vt`` past the rank.
    """

    rank: Array
    s: Array
    col: Array
    vt: Array
    cut: float

    @property
    def gap(self) -> float:
        """How far the decisions are from flipping: the smallest ratio, over the stack, of a kept singular value to the cut or of the cut to a dropped one."""
        cut = self.cut * self.s[..., :1]
        with np.errstate(all="ignore"):
            ratio = np.where(self.s > cut, self.s / cut, cut / self.s)
        return float(np.fmin.reduce(ratio, axis=None, initial=np.inf))  # a zero matrix (0/0) decides nothing


def rank_gap(mat: Array, cut: float) -> RankGap:
    """Ranks of a stack of matrices (..., m, n): the singular values of the equilibrated matrices above ``cut`` times the largest.

    Each Ruiz sweep divides every row and column whose largest entry lies in [2^(e-1), 2^e) by 2^floor(e/2), and the
    sweeps stop at the first one whose factors are all 1: every nonzero row and column then peaks in [1/2, 2).  They
    do stop, since after the first sweep every entry is below 2 and the factors only grow.

    Scaling rows and columns of random dense products by 2^±k kept their rank in all 3,000 fuzz cases.  On a sparse
    pattern the sweeps can stop at another equilibrium, so the rank is not scale-free: with 30% of the entries zeroed,
    it changed in 9/800 cases at k = 40, 59/800 at k = 80 and 121/800 at k = 160.
    """
    mag = scaled = np.abs(mat)
    row, col = np.zeros(mat.shape[:-1], dtype=int), np.zeros(mat.shape[:-2] + mat.shape[-1:], dtype=int)
    while True:
        shift_row, shift_col = (np.frexp(scaled.max(axis=axis, initial=0.0))[1] >> 1 for axis in (-1, -2))
        if not (shift_row.any() or shift_col.any()):
            break
        row, col = row - shift_row, col - shift_col
        scaled = np.ldexp(mag, row[..., None] + col[..., None, :])
    _, s, vt = np.linalg.svd(np.ldexp(mat, row[..., None] + col[..., None, :]))
    return RankGap(np.sum(s > cut * s[..., :1], axis=-1), s, col, vt, cut)


EXACT_CUT = 1e-8


def exactness(f: Array, h: Array) -> tuple[bool, bool, float, float, dict]:
    """The one exactness rule for 0 -> A --F--> B --H--> C -> 0 over a stack, F (..., b, a) and H (..., c, b): whether F is
    injective and H surjective at every fibre (``rank_gap`` at ``EXACT_CUT``), the worst |H F|, the worst distance of H's
    unit kernel vectors from im F, measured in H's equilibrated columns where ker H = C ker(R H C) becomes
    ker(R H C) = im(C^-1 F) (the kernel basis as columns, those outside it zeroed), and the dimensions with the smallest ranks."""
    rank_f, h_r = rank_gap(f, EXACT_CUT).rank, rank_gap(h, EXACT_CUT)
    ker = h_r.vt.swapaxes(-1, -2) * (np.arange(h.shape[-1]) >= h_r.rank[..., None])[..., None, :]
    q, _ = np.linalg.qr(np.ldexp(f, -h_r.col[..., :, None]))
    ranks = {"dims": [f.shape[-1], f.shape[-2], h.shape[-2]], "rank_first": int(np.min(rank_f)), "rank_second": int(np.min(h_r.rank))}
    off = worst(row_norm(ker - q @ (q.swapaxes(-1, -2) @ ker), 2))
    return bool(np.all(rank_f == f.shape[-1])), bool(np.all(h_r.rank == h.shape[-2])), worst(np.abs(h @ f)), off, ranks


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
