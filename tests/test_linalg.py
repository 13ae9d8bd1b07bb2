"""The one rank rule: Ruiz equilibration by powers of two, then a cut relative to the largest singular value; and the one exactness rule built on it."""

import numpy as np
import pytest

from gaugemech.linalg import exactness, rank_gap


def _product(rng, m, n, r):
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


@pytest.mark.parametrize("k", [0, 1, 20, 80, 160])
@pytest.mark.parametrize("m, n, r", [(6, 4, 2), (4, 6, 3), (7, 7, 5), (5, 3, 3), (3, 5, 0)])
def test_rank_kept_under_power_of_two_scalings(m, n, r, k):
    # rows and columns scaled by 2^i, i drawn from [-k, k]: the scaled matrix is exact, so the rank must not move
    rng = np.random.default_rng([m, n, r, k])
    a = np.stack([_product(rng, m, n, r) for _ in range(20)])
    scaled = np.ldexp(a, rng.integers(-k, k + 1, size=(20, m, 1)) + rng.integers(-k, k + 1, size=(20, 1, n)))
    assert rank_gap(scaled, 1e-8).rank.tolist() == [r] * 20
    # rows alternately at 2^k and 2^-k, columns the other way round
    alternate = k * (-1) ** np.arange(max(m, n))
    assert rank_gap(np.ldexp(a, alternate[:m, None] - alternate[:n]), 1e-8).rank.tolist() == [r] * 20


def test_kernel_in_original_columns():
    # ker M = C ker(R M C): the rows of vt past the rank, scaled by 2^col, are annihilated by M itself
    rng = np.random.default_rng(3)
    a = np.ldexp(_product(rng, 5, 7, 3), rng.integers(-60, 61, size=(5, 1)) + rng.integers(-60, 61, size=7))
    r = rank_gap(a, 1e-8)
    assert r.rank == 3
    ker = np.ldexp(r.vt[r.rank :], r.col)
    assert np.max(np.abs(a @ ker.T)) <= 1e-12 * np.max(np.abs(a)) * np.max(np.abs(ker))


def test_equilibrated_matrix_is_left_alone():
    # every row and column with its largest entry in [1/2, 2) already: no sweep scales it, the bits stay
    a = np.array([[1.0, -0.5, 0.0], [0.25, 1.5, 1.0], [0.0, 0.0, -1.0]])
    r = rank_gap(a, 1e-8)
    assert r.col.tolist() == [0, 0, 0]
    np.testing.assert_array_equal(r.s, np.linalg.svd(a)[1])


def test_diagonal_spectrum_gives_its_gap():
    # cut 0.25 of the largest: 0.375 for the first matrix (smallest kept 0.75, largest dropped 0), 0.25 for the
    # identity (smallest kept 1): the decisions are 2 and 4 times the cut away from flipping
    r = rank_gap(np.stack([np.diag([1.5, 1.0, 0.75, 0.0]), np.eye(4)]), 0.25)
    assert r.rank.tolist() == [3, 4]
    assert r.gap == 2.0
    # cut 0.5 of 1.5 is 0.75: the smallest singular value sits on the cut and is dropped, gap 1
    r = rank_gap(np.diag([1.5, 1.0, 0.75, 0.0]), 0.5)
    assert (r.rank, r.gap) == (2, 1.0)


def test_near_deficient_matrix_has_a_small_gap():
    # singular values about 2 and 5e-13: rank 1 at cut 1e-8, 4e4 times the cut above the dropped one
    r = rank_gap(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]]), 1e-8)
    assert r.rank == 1
    assert 1e4 < r.gap < 1e5


def test_zero_matrix_and_empty_stacks():
    r = rank_gap(np.zeros((3, 4, 2)), 1e-8)
    assert r.rank.tolist() == [0, 0, 0]
    assert r.gap == np.inf
    for shape in [(4, 3, 0), (4, 0, 3), (0, 3, 3)]:
        r = rank_gap(np.zeros(shape), 1e-8)
        assert r.rank.shape == shape[:1] and not r.rank.any()
        assert r.gap == np.inf


def test_wide_exponent_range_ends():
    # entries from 2^-1000 to 2^1000 in one matrix: the sweeps end, and the factors stay integers
    rng = np.random.default_rng(4)
    a = np.ldexp(rng.standard_normal((6, 5)), rng.integers(-1000, 1001, size=(6, 5)))
    r = rank_gap(a, 1e-8)
    assert r.rank == 5 and np.isfinite(r.gap)



def _sequence(case: str, rng) -> tuple[np.ndarray, np.ndarray]:
    """F: R^a -> R^5 and H: R^5 -> R^c at 10 fibres: F spans the first two columns of a random basis M of R^5 and H
    reads the last three coordinates in it, so 0 -> R^2 -> R^5 -> R^3 -> 0 is exact, then broken as ``case`` says."""
    m = rng.standard_normal((10, 5, 5))
    f, h = m[..., :2], np.linalg.inv(m)[..., 2:, :]
    if case == "nonzero composite":
        # F leans 1e-9 out of ker H: on columns of norm about 1e4 that is a composite of 1e-9 but an angle of 1e-13
        f = 1e4 * f + 1e-9 * m[..., 2:3] * [1.0, 0.0]
    elif case == "image smaller than kernel":
        f = f[..., :1]
    elif case == "rank-deficient first map":
        f = m[..., [0, 1, 0]]
    elif case == "non-surjective second map":
        h = np.concatenate([h, h[..., :1, :] + h[..., 1:2, :]], axis=-2)
    return f, h


def _verdicts(f: np.ndarray, h: np.ndarray) -> tuple[bool, bool, bool, bool]:
    """injective, surjective, composite_zero and image_equals_kernel at the groupoid sequences' tolerance 1e-10."""
    injective, surjective, composite, image_kernel, _ = exactness(f, h)
    return injective, surjective, composite <= 1e-10, image_kernel <= 1e-10


@pytest.mark.parametrize("case, expected", [
    ("exact", (True, True, True, True)),
    ("nonzero composite", (True, True, False, True)),
    ("image smaller than kernel", (True, True, True, False)),
    ("rank-deficient first map", (False, True, True, True)),
    ("non-surjective second map", (True, False, True, True)),
])
def test_exactness_fails_only_what_is_broken(case, expected):
    f, h = _sequence(case, np.random.default_rng(5))
    assert _verdicts(f, h) == expected
    # the middle space in other units: F's rows and H's columns scaled by 2^40 and 2^-40 in turn leave H F as it is
    d = 40 * (-1) ** np.arange(5)
    assert _verdicts(np.ldexp(f, d[:, None]), np.ldexp(h, -d)) == expected


def test_exactness_of_one_fibre_and_its_rank_table():
    # a single pair runs through the same code as a stack; the table gives the dimensions and the smallest ranks
    f, h = _sequence("image smaller than kernel", np.random.default_rng(6))
    *_, image_kernel, ranks = exactness(f[0], h[0])
    assert ranks == {"dims": [1, 5, 3], "rank_first": 1, "rank_second": 3}
    assert 0.1 < image_kernel <= 1.0
