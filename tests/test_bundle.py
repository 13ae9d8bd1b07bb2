import numpy as np
import pytest

from gaugemech import bundle, liealg
from gaugemech.bundle import BundleSpec, ConnectionData, CotangentSample, Point


def so3_bundle(connection=None):
    g = liealg.so3()
    conn = connection if connection is not None else ConnectionData.from_matrix(np.array([[0.3, -0.1], [0.0, 0.2], [0.1, 0.4]]))
    return BundleSpec("TrivialProduct", g, conn, base_box=[[-1.0, 1.0], [-1.0, 1.0]])


def random_cotangent(b, rng):
    """A covector at a random point: the draws of ``random_point_coords`` and ``random_covector``."""
    return CotangentSample(b.point_at(*b.random_point_coords(rng)), *b.random_covector(rng))


def u1_bundle():
    t1 = liealg.torus(1)
    terms = [[[(-0.5, (0, 1))]], [[(0.5, (1, 0))]]]
    return BundleSpec("TrivialProduct", t1, ConnectionData(2, 1, terms), base_box=[[-1.0, 1.0], [-1.0, 1.0]])


class TestActionSuite:
    def test_so3_bundle_passes(self):
        rep = bundle.action_suite(so3_bundle(), samples=30, seed=1)
        assert rep.passed, rep.failures()

    def test_identity_acts_trivially(self):
        b = so3_bundle()
        assert np.max(np.abs(b.tk_g(np.eye(3)) - np.eye(b.tangent_dim))) <= 1e-14

    def test_w4_composition(self):
        # T kappa_{pg}(e) = T kappa_g(p) o T kappa_p(e) o Ad_g
        b = so3_bundle()
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = b.group.exp(b.group.random_algebra(rng))
            lhs = b.tk_p_e()
            rhs = b.tk_g(g) @ b.tk_p_e() @ b.group.Ad(g)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_w7_cocycle_direct_composition(self):
        b = so3_bundle()
        rng = np.random.default_rng(3)
        g, h = b.group.exp(b.group.random_algebra(rng)), b.group.exp(b.group.random_algebra(rng))
        assert np.max(np.abs(b.tk_g(g @ h) - b.tk_g(h) @ b.tk_g(g))) <= 1e-12


class TestMomentum:
    def test_group_point_at_identity(self):
        # P = G: at p = e the momentum reads the covector off unchanged
        g = liealg.so3()
        b = BundleSpec("TrivialProduct", g, ConnectionData.flat(0, 3), base_box=np.zeros((0, 2)))
        rng = np.random.default_rng(4)
        cov = rng.standard_normal(3)
        s = CotangentSample(Point(np.zeros(0), np.eye(3)), np.zeros(0), cov)
        np.testing.assert_allclose(b.momentum(s), cov, atol=1e-14)

    def test_vertical_annihilator_is_momentum_kernel(self):
        b = so3_bundle()
        rng = np.random.default_rng(5)
        s = random_cotangent(b, rng)
        s0 = CotangentSample(s.point, s.a, np.zeros(3))
        assert np.linalg.norm(b.momentum(s0)) == 0.0

    def test_equivariance_identity_element(self):
        b = so3_bundle()
        rng = np.random.default_rng(6)
        assert b.equivariance_residual(random_cotangent(b, rng), np.eye(3)) <= 1e-14

    def test_equivariance_abelian(self):
        t2 = liealg.torus(2)
        b = BundleSpec("TrivialProduct", t2, ConnectionData.flat(1, 2), base_box=[[-1.0, 1.0]])
        rng = np.random.default_rng(7)
        for _ in range(10):
            s = random_cotangent(b, rng)
            g = t2.exp(t2.random_algebra(rng))
            # Ad* is trivial: J(phi . g) = J(phi)
            assert np.linalg.norm(b.momentum(b.cot_act(s, g)) - b.momentum(s)) <= 1e-12

    def test_equivariance_random_so3(self):
        b = so3_bundle()
        rng = np.random.default_rng(8)
        worst = max(b.equivariance_residual(random_cotangent(b, rng), b.group.exp(b.group.random_algebra(rng))) for _ in range(50))
        assert worst <= 1e-10

    def test_suite(self):
        rep = bundle.momentum_suite(so3_bundle(), samples=60, seed=9)
        assert rep.passed, rep.failures()


class TestQuotient:
    def test_idempotent(self):
        b = so3_bundle()
        rng = np.random.default_rng(10)
        cls = b.quotient_rep(random_cotangent(b, rng))
        again = b.quotient_rep(cls.rep)
        assert b.class_distance(cls, again) <= 1e-13

    def test_orbit_invariance(self):
        b = so3_bundle()
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = random_cotangent(b, rng)
            g = b.group.exp(b.group.random_algebra(rng))
            assert b.class_distance(b.quotient_rep(s), b.quotient_rep(b.cot_act(s, g))) <= 1e-11

    def test_torus_fiber_wrap(self):
        b = u1_bundle()
        rng = np.random.default_rng(12)
        m = b.random_base(rng)
        a, cov = rng.standard_normal(2), rng.standard_normal(1)
        u1 = b.group.exp(np.array([0.7]))
        u2 = b.group.exp(np.array([0.7 + 2 * np.pi]))
        c1 = b.quotient_rep(CotangentSample(Point(m, u1), a, cov))
        c2 = b.quotient_rep(CotangentSample(Point(m, u2), a, cov))
        assert b.class_distance(c1, c2) <= 1e-12


class TestDualSequence:
    def test_a_star_lands_in_momentum_kernel(self):
        b = so3_bundle()
        rng = np.random.default_rng(13)
        for _ in range(10):
            cls = b.a_star(b.random_base(rng), rng.standard_normal(2))
            assert np.linalg.norm(b.momentum(cls.rep)) == 0.0

    def test_iota_after_a_star_vanishes(self):
        b = so3_bundle()
        rng = np.random.default_rng(14)
        cls = b.a_star(b.random_base(rng), rng.standard_normal(2))
        _, chi = b.iota_star(cls)
        assert np.linalg.norm(chi) == 0.0

    def test_fiber_dimension_count(self):
        b = so3_bundle()
        # dim T*P = dim T*(P/G) + dim g* fiberwise
        assert b.tangent_dim == b.d + b.n

    def test_suite_exactness(self):
        rep = bundle.dual_sequence_suite(so3_bundle(), samples=100, seed=15)
        assert rep.passed, rep.failures()

    def test_sigma_section(self):
        b = so3_bundle()
        rng = np.random.default_rng(16)
        m = b.random_base(rng)
        chi = rng.standard_normal(3)
        base, chi2 = b.iota_star(b.sigma(m, chi))
        np.testing.assert_allclose(chi2, chi, atol=1e-13)
        # chi = 0 gives a class in J^{-1}(0)/G
        assert np.linalg.norm(b.momentum(b.sigma(m, np.zeros(3)).rep)) == 0.0

    def test_flat_connection_sigma_has_zero_base_part(self):
        g = liealg.so3()
        b = BundleSpec("TrivialProduct", g, ConnectionData.flat(2, 3), base_box=[[-1.0, 1.0], [-1.0, 1.0]])
        rng = np.random.default_rng(17)
        cls = b.sigma(b.random_base(rng), rng.standard_normal(3))
        assert np.linalg.norm(cls.rep.a) == 0.0

    def test_stacked_maps_equal_single_calls(self):
        b = so3_bundle()
        rng = np.random.default_rng(21)
        base = np.stack([b.random_base(rng) for _ in range(5)])
        rho, chi = rng.standard_normal((5, 2)), rng.standard_normal((5, 3))
        a_cls, s_cls = b.a_star(base, rho), b.sigma(base, chi)
        for i in range(5):
            assert np.array_equal(a_cls.rep.coords[i], b.a_star(base[i], rho[i]).rep.coords)
            assert np.array_equal(s_cls.rep.coords[i], b.sigma(base[i], chi[i]).rep.coords)
            assert np.array_equal(b.iota_star(s_cls)[1][i], b.iota_star(b.sigma(base[i], chi[i]))[1])

    def test_nonflat_sigma_matches_connection_coefficients(self):
        b = so3_bundle()
        rng = np.random.default_rng(18)
        m = b.random_base(rng)
        chi = rng.standard_normal(3)
        a_mat = b.connection.matrix(m)
        np.testing.assert_allclose(b.sigma(m, chi).rep.a, a_mat.T @ chi, atol=1e-13)


class TestAnchorPullback:
    def test_zero_covector(self):
        b = so3_bundle()
        phi = b.a_star(np.array([0.2, -0.3]), np.zeros(2)).rep
        assert b.gamma(phi, np.array([1.0, 2.0, 0.0, 0.0, 0.0])) == 0.0

    def test_so3_suite(self):
        rep = bundle.anchor_pullback_suite(so3_bundle(), samples=40, seed=19)
        assert rep.passed, rep.failures()

    def test_abelian_fiber_suite(self):
        rep = bundle.anchor_pullback_suite(u1_bundle(), samples=40, seed=20)
        assert rep.passed, rep.failures()


class TestConnection:
    def test_invariants(self):
        rep = bundle.connection_suite(so3_bundle(), samples=30, seed=21)
        assert rep.passed, rep.failures()

    def test_nan_coefficient_fails(self):
        # a NaN residual must fail its check, not vanish from the running maximum
        mat = np.array([[0.3, -0.1], [0.0, 0.2], [0.1, 0.4]])
        mat[1, 0] = np.nan
        rep = bundle.connection_suite(so3_bundle(ConnectionData.from_matrix(mat)), samples=10, seed=21)
        assert not rep.passed
        assert {c.name for c in rep.failures()} == {"reproduces_vertical", "Ad_equivariance"}
        assert all(np.isnan(c.residual) for c in rep.checks)

    def test_load_rejects_box_where_connection_overflows(self):
        # fourth powers of 1e70 are finite, but a cubic term with coefficient 1e100 overflows at the corners
        doc = {"kind": "TrivialProduct", "group": "so3", "base_box": [[-1e70, 1e70], [-1.0, 1.0]],
               "connection": {"A": [[[[1e100, [3, 0]]], [], []], [[], [], []]]}}
        with pytest.raises(ValueError, match="'base_box'"):
            bundle.bundle_from_json(doc, group_resolver=lambda g: liealg.builtin_group(g))
        doc["connection"]["A"][0][0][0][1] = [2, 0]
        b = bundle.bundle_from_json(doc, group_resolver=lambda g: liealg.builtin_group(g))
        assert np.isfinite(b.connection.matrix(b.base_box[:, 1])).all()

    def test_load_reads_integer_coefficients_as_floats(self):
        # an integer past 2**63 still loads
        conn = ConnectionData.from_json({"A": [[[[2, [0, 1]]]], [[[10**20, [1, 0]]]]]}, 2, 1)
        assert conn.terms == [[[(2.0, (0, 1))]], [[(1e20, (1, 0))]]]
        assert all(type(c) is float for per_base in conn.terms for monos in per_base for c, _ in monos)

    def test_curvature_oracle_u1(self):
        b = u1_bundle()
        f2 = b.connection.curvature_two_form(np.array([0.3, 0.4]))
        # dA = dx ^ dy for A = (-y dx + x dy)/2
        assert abs(f2[0, 1, 0] - 1.0) <= 1e-14
        assert abs(f2[1, 0, 0] + 1.0) <= 1e-14

    def test_semidirect_base_requires_flat_coefficients(self):
        from gaugemech import semidirect

        sd = semidirect.so3_r3()
        with pytest.raises(ValueError):
            BundleSpec("SemidirectTotal", sd.N, ConnectionData.from_matrix(np.ones((3, 3))), base_group=sd.K)


class TestBatchedSuitesSeeLastRow:
    @pytest.mark.parametrize("suite, check", [(bundle.momentum_suite, "J_equivariance"), (bundle.action_suite, "w8")])
    def test_cot_act_mutant(self, monkeypatch, suite, check):
        b = so3_bundle()
        assert suite(b, samples=20, seed=3).passed
        original = BundleSpec.cot_act

        def mutant(self, sample, g):
            out = original(self, sample, g)
            if out.b.ndim != 2:
                return out
            b = np.array(out.b)
            b[-1] += 1e-6
            return CotangentSample(out.point, out.a, b)

        monkeypatch.setattr(BundleSpec, "cot_act", mutant)
        assert check in {c.name for c in suite(b, samples=20, seed=3).failures()}
