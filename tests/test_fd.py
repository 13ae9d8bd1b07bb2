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
        # one value per point of a stack (..., 4)
        return 0.5 * np.vecdot(y @ a, y) + y @ b + 1.5

    exact = dirs @ (a @ x + b)
    for h in (0.5, fd.GRAD_STEP):
        np.testing.assert_allclose(fd.central(f, x, dirs, h), exact, rtol=0, atol=1e-12 / h)
    # a vector-valued function gives one row per direction
    rows = fd.central(lambda y: np.stack([f(y), 2.0 * f(y)], axis=-1), x, dirs, 0.5)
    np.testing.assert_allclose(rows, np.stack([exact, 2.0 * exact], axis=1), rtol=0, atol=1e-12)


def test_central_unit_direction_moves_one_entry():
    x = np.array([0.1, -2.0, 3.5])
    seen = []

    def record(y):
        seen.append(y.copy())
        return np.zeros(len(y))

    fd.central(record, x, np.eye(3), fd.FINE_STEP)
    # one stacked argument: the points moved by -h e_i, then those moved by +h e_i
    (stack,) = seen
    assert stack.shape == (6, 3)
    for i, (minus, plus) in enumerate(zip(stack[:3], stack[3:])):
        e = np.zeros(3)
        e[i] = fd.FINE_STEP
        assert np.array_equal(plus, x + e) and np.array_equal(minus, x - e)


def test_central_calls_fn_once():
    calls = []

    def count(y):
        calls.append(y.shape)
        return _entrywise(y)

    rng = np.random.default_rng(3)
    fd.central(count, rng.standard_normal(4), np.eye(4), fd.GRAD_STEP)
    fd.central(count, rng.standard_normal((5, 4)), rng.standard_normal((2, 5, 4)), fd.GRAD_STEP)
    assert calls == [(8, 4), (4, 5, 4)]


def test_central_refuses_one_point_formula():
    # y[0] * y[1] multiplies two displaced points instead of two coordinates of each
    with pytest.raises(ValueError, match="one value per displaced point"):
        fd.central(lambda y: y[0] * y[1], np.array([0.3, -1.2, 0.5]), np.eye(3), fd.GRAD_STEP)
    with pytest.raises(ValueError, match="one value per displaced point"):
        fd.central(lambda y: 1.0, np.array([0.3, -1.2]), np.eye(2), fd.GRAD_STEP)


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
        # one row per entry of t
        return np.stack([np.sin(t), t**3, np.exp(-t)], axis=-1)

    h = fd.GRAD_STEP
    t0 = 0.3
    by_central = fd.central(lambda y: curve(y[..., 0]), [t0], [[1.0]], h)[0]
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
