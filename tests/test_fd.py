import numpy as np
import pytest

from gaugemech import fd, liealg


def test_central_exact_on_quadratic():
    # the central difference of a quadratic has no truncation error, so even a
    # large step along non-unit directions recovers the derivative to rounding
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    b = rng.standard_normal(4)
    x = rng.standard_normal(4)
    dirs = rng.standard_normal((3, 4))

    def f(y):
        return float(0.5 * y @ a @ y + b @ y + 1.5)

    exact = dirs @ (a @ x + b)
    for h in (0.5, fd.GRAD_STEP):
        np.testing.assert_allclose(fd.central(f, x, dirs, h), exact, rtol=0, atol=1e-12 / h)
    # a vector-valued function gives one row per direction
    rows = fd.central(lambda y: np.array([f(y), 2.0 * f(y)]), x, dirs, 0.5)
    np.testing.assert_allclose(rows, np.stack([exact, 2.0 * exact], axis=1), rtol=0, atol=1e-12)


def test_central_unit_direction_moves_one_entry():
    x = np.array([0.1, -2.0, 3.5])
    seen = []

    def record(y):
        seen.append(y.copy())
        return 0.0

    fd.central(record, x, np.eye(3), fd.FINE_STEP)
    for i, (minus, plus) in enumerate(zip(seen[::2], seen[1::2])):
        e = np.zeros(3)
        e[i] = fd.FINE_STEP
        assert np.array_equal(plus, x + e) and np.array_equal(minus, x - e)


@pytest.mark.parametrize("group", [liealg.so3(), liealg.heisenberg3()], ids=lambda g: g.name)
def test_group_velocity_of_one_parameter_curve(group):
    rng = np.random.default_rng(1)
    for _ in range(5):
        g = group.exp(group.random_algebra(rng))
        xi = rng.standard_normal(group.dim)
        h = fd.FINE_STEP
        v = fd.group_velocity(group, g @ group.exp(-h * xi), g @ group.exp(h * xi), h)
        np.testing.assert_allclose(v, xi, rtol=0, atol=1e-9)


def test_quotient_matches_central_on_vector_curve():
    def curve(t):
        return np.array([np.sin(t), t**3, np.exp(-t)])

    h = fd.GRAD_STEP
    t0 = 0.3
    by_central = fd.central(lambda y: curve(y[0]), [t0], [[1.0]], h)[0]
    assert np.array_equal(fd.quotient(curve(t0 - h), curve(t0 + h), h), by_central)


def _entrywise(y):
    # one value per point of any stack, entrywise arithmetic only: the same bits at every stack shape
    return np.sin(y[..., 0]) * y[..., 1] + y[..., 2] ** 3 - np.exp(0.5 * y[..., 3])


def test_stacked_x_matches_per_point_loop():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 4))
    for dirs in (np.eye(4), rng.standard_normal((3, 4))):
        rows = fd.central(_entrywise, x, dirs, fd.NESTED_STEP)
        assert rows.shape == (len(dirs), 6)
        assert np.array_equal(rows.T, [fd.central(_entrywise, p, dirs, fd.NESTED_STEP) for p in x])
