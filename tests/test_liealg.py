import dataclasses
import warnings

import numpy as np
import pytest

from gaugemech import liealg, semidirect
from gaugemech.liealg import LieDomainError, expm, logm, validate_spec
from gaugemech.poisson import dexp_left


def rodrigues(w):
    """Independent closed-form oracle for the SO(3) exponential."""
    theta = np.linalg.norm(w)
    k = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0.0]])
    if theta < 1e-12:
        return np.eye(3) + k
    return np.eye(3) + np.sin(theta) / theta * k + (1 - np.cos(theta)) / theta**2 * (k @ k)


@pytest.fixture(scope="module")
def so3():
    return liealg.so3()


class TestBracket:
    def test_antisymmetry_on_self(self, so3):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = so3.random_algebra(rng)
            assert np.allclose(so3.bracket(x, x), 0.0)

    def test_so3_basis_bracket(self, so3):
        e = np.eye(3)
        # oracle: matrix commutator of the chosen basis matrices, re-expanded
        comm = so3.basis[0] @ so3.basis[1] - so3.basis[1] @ so3.basis[0]
        expected = so3.to_coords(comm)
        np.testing.assert_allclose(so3.bracket(e[0], e[1]), expected, atol=1e-14)
        np.testing.assert_allclose(expected, [0.0, 0.0, 1.0], atol=1e-14)

    def test_abelian_brackets_vanish(self):
        r3 = liealg.translation_group(3)
        rng = np.random.default_rng(7)
        assert np.allclose(r3.bracket(r3.random_algebra(rng), r3.random_algebra(rng)), 0.0)

    def test_dimension_mismatch(self, so3):
        with pytest.raises(ValueError):
            so3.bracket(np.zeros(2), np.zeros(3))


class TestExpLog:
    def test_exp_zero(self, so3):
        np.testing.assert_allclose(so3.exp(np.zeros(3)), np.eye(3), atol=1e-15)

    def test_exp_quarter_turn_matches_rodrigues(self, so3):
        w = np.array([0.0, 0.0, np.pi / 2])
        np.testing.assert_allclose(so3.exp(w), rodrigues(w), atol=1e-13)
        np.testing.assert_allclose(so3.exp(w), [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-13)

    def test_exp_random_matches_rodrigues(self, so3):
        rng = np.random.default_rng(3)
        for _ in range(15):
            w = rng.standard_normal(3)
            np.testing.assert_allclose(so3.exp(w), rodrigues(w), atol=1e-12)

    def test_log_roundtrip(self, so3):
        x = np.array([0.1, 0.0, 0.0])
        np.testing.assert_allclose(so3.log(so3.exp(x)), x, atol=1e-12)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = 0.8 * rng.standard_normal(3)
            np.testing.assert_allclose(so3.exp(so3.log(so3.exp(x))), so3.exp(x), atol=1e-10)

    def test_log_outside_injectivity_radius(self, so3):
        with pytest.raises(LieDomainError):
            so3.log(so3.exp(np.array([np.pi, 0.0, 0.0])))

    def test_heisenberg_nilpotent_roundtrip(self):
        h3 = liealg.heisenberg3()
        rng = np.random.default_rng(5)
        x = 2.0 * rng.standard_normal(3)
        np.testing.assert_allclose(h3.log(h3.exp(x)), x, atol=1e-11)

    def test_torus_angle_wrap(self):
        t1 = liealg.torus(1)
        np.testing.assert_allclose(t1.exp(np.array([1.0])), t1.exp(np.array([1.0 + 2 * np.pi])), atol=1e-12)


class TestExpm:
    @pytest.mark.parametrize("norm", [0.01, 0.2, 0.9, 2.0, 5.0, 40.0])
    def test_pade_branches_match_rodrigues(self, so3, norm):
        # 1-norms inside the degree 3, 5, 7, 9 and 13 branches, and 13 after squarings
        rng = np.random.default_rng(19)
        for _ in range(10):
            w = rng.standard_normal(3)
            w *= norm / np.abs(so3.from_coords(w)).sum(axis=0).max()
            err = np.max(np.abs(expm(so3.from_coords(w)) - rodrigues(w)))
            assert err <= 1e-15 * max(1.0, norm)

    @pytest.mark.parametrize("norm", [0.01, 0.2, 0.9, 2.0, 5.0, 40.0])
    def test_inverse(self, norm):
        rng = np.random.default_rng(20)
        for _ in range(5):
            a = rng.standard_normal((4, 4))
            a -= a.T  # skew, so exp(a) is orthogonal and the product stays well conditioned
            a *= norm / np.abs(a).sum(axis=0).max()
            assert np.max(np.abs(expm(a) @ expm(-a) - np.eye(4))) <= 1e-14 * max(1.0, norm)

    @pytest.mark.parametrize("factory", [liealg.heisenberg3, lambda: liealg.translation_group(3)])
    def test_nilpotent_exact(self, factory):
        g = factory()
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = g.from_coords(3.0 * rng.standard_normal(g.dim))
            assert np.array_equal(expm(a), np.eye(g.embed) + a + 0.5 * (a @ a))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, so3, bad):
        a = so3.from_coords(np.array([0.1, 0.2, 0.3]))
        a[0, 1] = bad
        with pytest.raises(LieDomainError):
            expm(a)

    @pytest.mark.parametrize("coords", [(1e200, 2e200, -1e200), (1e150, 0.0, 0.0), (1e90, -1e90, 0.0)])
    def test_huge_finite_norm_raises_without_warnings(self, so3, coords):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LieDomainError):
                expm(so3.from_coords(np.array(coords)))

    def test_overflowing_exponential_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LieDomainError):
                expm(np.diag([1000.0, 0.0, 0.0]))


class TestClosedFormRotations:
    """The Rodrigues exp and closed-form log of 3x3 antisymmetric bases against the generic kernels."""

    @pytest.mark.parametrize("norm", [1e-6, 2e-4, 0.01, 0.2, 0.9, 2.0, 5.0, 40.0])
    def test_exp_matches_pade(self, so3, norm):
        # the small-angle Taylor branch (theta^2 < 1e-8), just above it, and every Pade branch
        assert so3._rotation_basis
        rng = np.random.default_rng(19)
        for _ in range(10):
            w = rng.standard_normal(3)
            w *= norm / np.abs(so3.from_coords(w)).sum(axis=0).max()
            err = np.max(np.abs(so3.exp(w) - expm(so3.from_coords(w))))
            assert err <= 1e-15 * max(1.0, norm)

    def test_only_antisymmetric_3x3_bases(self):
        assert not liealg.heisenberg3()._rotation_basis
        assert not liealg.torus(1)._rotation_basis
        assert not semidirect.so3_r3().group_spec()._rotation_basis

    @pytest.mark.parametrize("angle", [1e6, 1e10, 1e16])
    def test_large_angle_stays_orthogonal(self, so3, angle):
        for axis in (np.array([1.0, 0.0, 0.0]), np.array([0.6, -0.8, 0.0]), np.array([2.0, 3.0, 6.0]) / 7.0):
            r = so3.exp(angle * axis)
            assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-14
            assert abs(np.linalg.det(r) - 1.0) <= 1e-14

    @pytest.mark.parametrize("coords", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf)])
    def test_non_finite_angle_raises(self, so3, coords):
        with np.errstate(invalid="ignore"):  # inf * 0 in the coordinate map itself
            with pytest.raises(LieDomainError):
                so3.exp(np.array(coords))

    @pytest.mark.parametrize("coords", [(1e200, 0.0, 0.0), (1e155, -1e155, 0.0), (0.0, 1e300, 1e300)])
    def test_overflowing_angle_raises_without_warnings(self, so3, coords):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LieDomainError):
                so3.exp(np.array(coords))

    def test_log_roundtrip(self, so3):
        rng = np.random.default_rng(23)
        for angle in (0.0, 1e-9, 1e-5, 0.3, 2.0, 3.0, np.pi - 1e-3, np.pi - 2e-6):
            x = rng.standard_normal(3)
            x *= angle / np.linalg.norm(x)
            g = so3.exp(x)
            # the log of a rotation near pi is ill-conditioned: about eps / (pi - angle)
            assert np.max(np.abs(so3.log(g) - x)) <= 1e-15 * max(1.0, 1.0 / (np.pi - angle))
            if angle <= 3.0:  # nearer pi the generic logm is accurate only to about eps / (pi - angle)
                assert np.max(np.abs(so3.log(g) - so3.to_coords(logm(g)))) <= 1e-14

    def test_log_of_exact_half_turn_raises(self, so3):
        for g in (np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), so3.exp(np.array([0.0, 0.0, np.pi]))):
            with pytest.raises(LieDomainError):
                so3.log(g)

    def test_non_rotation_defers_to_logm(self, so3):
        # inputs failing the orthogonality or determinant guard take the generic path unchanged
        r = so3.exp(np.array([0.3, -0.2, 0.5]))
        inputs = [
            np.diag([2.0, 1.0, 1.0]),
            np.diag([-1.0, 1.0, 1.0]),
            -r,
            r @ np.diag([1.0 + 1e-10, 1.0, 1.0]),
            r + 1e-9 * np.arange(9.0).reshape(3, 3),
            np.full((3, 3), np.nan),
        ]
        for g in inputs:
            try:
                expected = so3.to_coords(logm(g))
            except (LieDomainError, np.linalg.LinAlgError) as exc:
                with pytest.raises(type(exc)):
                    so3.log(g)
            else:
                assert np.array_equal(so3.log(g), expected)


def _dexp_full_series(group, xi, dxi, terms=24):
    """All terms of sum_k (-ad_xi)^k / (k+1)! dxi, with no early exit."""
    acc = np.asarray(dxi, dtype=float).copy()
    out = acc.copy()
    neg_ad = -group.ad(xi)
    fact = 1.0
    for k in range(1, terms):
        acc = neg_ad @ acc
        fact *= k + 1
        out = out + acc / fact
    return out


@pytest.mark.parametrize("factory", [lambda: liealg.torus(1), lambda: liealg.translation_group(3), liealg.heisenberg3, liealg.so3])
def test_dexp_left_matches_full_series_bitwise(factory):
    g = factory()
    rng = np.random.default_rng(24)
    for _ in range(10):
        xi, dxi = rng.standard_normal(g.dim), rng.standard_normal(g.dim)
        assert dexp_left(g, xi, dxi).tobytes() == _dexp_full_series(g, xi, dxi).tobytes()


def ad_by_columns(spec, g):
    """Reference Ad: one to_coords projection per conjugated basis matrix."""
    gi = np.linalg.inv(g)
    return np.stack([spec.to_coords(g @ spec.basis[i] @ gi, check=False) for i in range(spec.dim)], axis=1)


class TestAdjoint:
    @pytest.mark.parametrize("factory", [liealg.so3, liealg.heisenberg3, lambda: semidirect.so3_r3().group_spec()])
    def test_matches_column_construction(self, factory):
        g = factory()
        rng = np.random.default_rng(22)
        for _ in range(10):
            h = g.exp(g.random_algebra(rng, 1.0))
            assert np.max(np.abs(g.Ad(h) - ad_by_columns(g, h))) <= 1e-14

    @pytest.mark.parametrize("factory", [liealg.so3, liealg.heisenberg3, lambda: liealg.torus(2),
                                         lambda: semidirect.so3_r3().group_spec()])
    def test_inverse_variants_match_inverted_argument(self, factory):
        g = factory()
        rng = np.random.default_rng(25)
        for _ in range(10):
            h = g.exp(g.random_algebra(rng, 1.0))
            assert np.max(np.abs(g.Ad_star_inv(h) - g.Ad_star(np.linalg.inv(h)))) <= 1e-14
            assert np.max(np.abs(g.Ad_inv(h) - g.Ad(np.linalg.inv(h)))) <= 1e-14

    def test_identity_element(self, so3):
        rng = np.random.default_rng(6)
        x, mu = so3.random_algebra(rng), so3.random_coalgebra(rng)
        np.testing.assert_allclose(so3.Ad(np.eye(3)) @ x, x, atol=1e-13)
        np.testing.assert_allclose(so3.Ad_star(np.eye(3)) @ mu, mu, atol=1e-13)

    def test_Ad_homomorphism(self, so3):
        # oracle: matrix conjugation, composed two ways
        rng = np.random.default_rng(8)
        for _ in range(10):
            g, h = so3.exp(so3.random_algebra(rng)), so3.exp(so3.random_algebra(rng))
            np.testing.assert_allclose(so3.Ad(g @ h), so3.Ad(g) @ so3.Ad(h), atol=1e-12)

    def test_Ad_star_pairing_duality(self, so3):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = so3.exp(so3.random_algebra(rng))
            mu, x = so3.random_coalgebra(rng), so3.random_algebra(rng)
            lhs = so3.pair(so3.Ad_star(g) @ mu, x)
            rhs = so3.pair(mu, so3.Ad(g) @ x)
            assert abs(lhs - rhs) <= 1e-13

    def test_ad_star_pairing(self, so3):
        rng = np.random.default_rng(10)
        x, y, mu = so3.random_algebra(rng), so3.random_algebra(rng), so3.random_coalgebra(rng)
        assert abs(so3.pair(so3.ad_star(x) @ mu, y) - so3.pair(mu, so3.bracket(x, y))) <= 1e-13

    def test_abelian_coadjoint_trivial(self):
        r2 = liealg.translation_group(2)
        rng = np.random.default_rng(12)
        mu = r2.random_coalgebra(rng)
        np.testing.assert_allclose(r2.Ad_star(r2.exp(r2.random_algebra(rng))) @ mu, mu, atol=1e-13)


STACK_GROUPS = [liealg.so3, liealg.heisenberg3, lambda: liealg.translation_group(3), lambda: liealg.torus(2),
                lambda: semidirect.so3_r3().group_spec()]


class TestStacks:
    """A stack of elements gives, row by row, the bits of the single calls."""

    @staticmethod
    def _coords(g, rng):
        # algebra coordinates at scales from the Taylor / low-degree branches up to squarings
        return rng.standard_normal((7, g.dim)) * np.array([1e-5, 0.01, 0.3, 1.0, 2.5, 8.0, 40.0])[:, None]

    @pytest.mark.parametrize("factory", STACK_GROUPS)
    def test_exp_rows_equal_single_calls(self, factory):
        g = factory()
        x = self._coords(g, np.random.default_rng(40))
        stack = g.exp(x)
        assert stack.shape == (7, g.embed, g.embed)
        for row, xi in zip(stack, x):
            assert np.array_equal(row, g.exp(xi))

    @pytest.mark.parametrize("factory", STACK_GROUPS)
    @pytest.mark.parametrize("name", ["Ad", "Ad_inv", "Ad_star", "Ad_star_inv", "inverse"])
    def test_conjugation_rows_equal_single_calls(self, factory, name):
        g = factory()
        elements = g.exp(self._coords(g, np.random.default_rng(41)))
        fn = getattr(g, name)
        stack = fn(elements)
        assert stack.shape[0] == 7
        for row, el in zip(stack, elements):
            assert np.array_equal(row, fn(el))

    @pytest.mark.parametrize("factory", STACK_GROUPS)
    def test_inverse_is_inverse(self, factory):
        g = factory()
        elements = g.exp(np.random.default_rng(42).standard_normal((7, g.dim)))
        assert np.max(np.abs(g.inverse(elements) @ elements - np.eye(g.embed))) <= 1e-14

    @staticmethod
    def _log_inputs(g, rng):
        if g.name != "so3":
            return g.exp(TestStacks._coords(g, rng)[:5])  # scales up to 2.5, inside the injectivity radius
        # angles from the Taylor branch to both sides of the pi margin, then a non-orthogonal row: the last two defer to logm
        margin = liealg.ROTATION_LOG_PI_MARGIN
        axes = rng.standard_normal((8, 3))
        angles = [1e-5, 1e-3, 0.3, 1.0, 2.0, 3.0, np.pi - 2 * margin, np.pi - 0.5 * margin]
        elements = [g.exp(angle * axis / np.linalg.norm(axis)) for angle, axis in zip(angles, axes)]
        return np.stack(elements + [elements[3] @ np.diag([1.0 + 1e-10, 1.0, 1.0])])

    @pytest.mark.parametrize("factory", STACK_GROUPS)
    def test_log_rows_equal_single_calls(self, factory):
        g = factory()
        elements = self._log_inputs(g, np.random.default_rng(45))
        stack = g.log(elements)
        assert stack.shape == (len(elements), g.dim)
        for row, el in zip(stack, elements):
            assert np.array_equal(row, g.log(el))
        assert np.array_equal(g.log(elements[None]), stack[None])

    def test_rotation_log_rows_inside_the_pi_margin(self, so3):
        _, closed = liealg.rotation_log(self._log_inputs(so3, np.random.default_rng(45)))
        assert closed == [True] * 7 + [False, False]

    def test_rotation_inverse_is_transpose(self, so3):
        el = so3.exp(np.array([0.3, -1.2, 0.5]))
        assert np.array_equal(so3.inverse(el), el.T)

    def test_expm_mixed_exits(self, so3):
        # heisenberg rows have a^3 = 0 (exact exit); so3 rows take Pade degrees 3 to 13 with squarings
        rng = np.random.default_rng(43)
        h3 = liealg.heisenberg3()
        rows = [h3.from_coords(rng.standard_normal(3)) for _ in range(3)]
        rows += [so3.from_coords(rng.standard_normal(3) * s) for s in (0.003, 0.1, 0.4, 0.8, 2.0, 30.0)]
        stack = np.stack([rows[i] for i in (0, 3, 4, 1, 5, 6, 7, 2, 8)])
        out = expm(stack)
        for row, a in zip(out, stack):
            assert np.array_equal(row, expm(a))
        assert np.array_equal(out[0], np.eye(3) + stack[0] + 0.5 * (stack[0] @ stack[0]))

    def test_expm_non_finite_row_raises(self, so3):
        stack = so3.from_coords(np.random.default_rng(44).standard_normal((4, 3)))
        stack[2, 0, 1] = np.nan
        with pytest.raises(LieDomainError):
            expm(stack)


class TestValidate:
    @pytest.mark.parametrize("factory", [liealg.so3, liealg.heisenberg3, lambda: liealg.translation_group(3), lambda: liealg.torus(2)])
    def test_builtins_pass(self, factory):
        assert validate_spec(factory()).passed

    def test_broken_antisymmetry_fails_named_check(self, so3):
        bad = np.array(so3.structure)
        bad[0, 1, 2] = 2.0  # c^3_12 != -c^3_21
        spec = liealg.LieGroupSpec("broken", 3, 3, so3.basis, bad, so3.membership_residual)
        rep = validate_spec(spec)
        assert not rep.passed
        assert any(c.name == "antisymmetry" for c in rep.failures())

    def test_jacobi_defect_zero_for_so3(self, so3):
        assert liealg.jacobi_defect(so3) <= 1e-12


class TestCasimirs:
    @pytest.mark.parametrize("factory, n_linear, n_quadratic", [
        (liealg.so3, 0, 1),
        (liealg.heisenberg3, 1, 0),
        (lambda: liealg.translation_group(3), 3, 0),
        (lambda: liealg.torus(2), 2, 0),
        (lambda: semidirect.so3_r3().group_spec(), 0, 2),
    ])
    def test_counts(self, factory, n_linear, n_quadratic):
        linear, quadratic = factory().casimirs
        assert (len(linear), len(quadratic)) == (n_linear, n_quadratic)

    def test_exact_normal_forms(self, so3):
        np.testing.assert_array_equal(so3.casimirs[1], [np.eye(3)])
        np.testing.assert_array_equal(liealg.heisenberg3().casimirs[0], [[0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(liealg.translation_group(3).casimirs[0], np.eye(3))
        pi_gamma = np.zeros((6, 6))
        pi_gamma[:3, 3:] = pi_gamma[3:, :3] = 0.5 * np.eye(3)
        gamma_sq = np.diag([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(semidirect.so3_r3().group_spec().casimirs[1], [pi_gamma, gamma_sq])

    def test_independent_of_name(self, so3):
        heis = liealg.heisenberg3()
        renamed = dataclasses.replace(heis, name="so3")
        np.testing.assert_array_equal(renamed.casimirs[0], heis.casimirs[0])
        assert renamed.casimirs[1].shape[0] == 0
        np.testing.assert_array_equal(dataclasses.replace(so3, name="rot").casimirs[1], [np.eye(3)])


class TestSerialization:
    def test_generic_membership_fallback(self, so3):
        doc = liealg.spec_to_json(so3)
        doc["name"] = "custom-rotations"
        spec = liealg.spec_from_json(doc)
        rng = np.random.default_rng(18)
        assert spec.membership_defect(spec.exp(spec.random_algebra(rng))) <= spec.membership_tol
        assert spec.membership_defect(np.diag([2.0, 1.0, 1.0])) > spec.membership_tol


@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_logm_converges_near_half_turn(gap):
    # near pi the best square-root residual is about eps / gap, above the 1e-13 target
    so3, se3 = liealg.so3(), semidirect.so3_r3().group_spec()
    rng = np.random.default_rng(25)
    for _ in range(20):
        axis = rng.standard_normal(3)
        x = (np.pi - gap) * axis / np.linalg.norm(axis)
        assert np.max(np.abs(so3.to_coords(logm(so3.exp(x))) - x)) <= 1e-8
        y = np.concatenate([x, rng.standard_normal(3)])
        assert np.max(np.abs(se3.log(se3.exp(y)) - y)) <= 1e-8


def test_logm_of_half_turn_still_raises():
    so3 = liealg.so3()
    rng = np.random.default_rng(26)
    for _ in range(20):
        axis = rng.standard_normal(3)
        with pytest.raises(LieDomainError):
            logm(so3.exp(np.pi * axis / np.linalg.norm(axis)))
