import numpy as np
import pytest

from gaugemech import bundle, groupoid, liealg
from gaugemech.bundle import BundleSpec, ConnectionData, CotangentSample, Point
from gaugemech.groupoid import (
    CoalgebraTripleOps,
    CotangentPairOps,
    DualOfPairTangent,
    PairTangentOps,
    TangentVec,
    VBElement,
    core_compute,
    core_suite,
    dual_structure_suite,
    i2_star,
    j2,
    momentum_morphism_suite,
    quot_rep,
    ses_fiber_check,
    space_ops,
    tv0_membership_residual,
    vb_axiom_suite,
)


@pytest.fixture(scope="module")
def b():
    g = liealg.so3()
    conn = ConnectionData.from_matrix(np.array([[0.3, -0.1], [0.0, 0.2], [0.1, 0.4]]))
    return BundleSpec("TrivialProduct", g, conn, base_box=[[-1.0, 1.0], [-1.0, 1.0]])


class TestAxioms:
    @pytest.mark.parametrize("tag", groupoid.SPACE_TAGS)
    def test_axiom_suite(self, b, tag):
        rep = vb_axiom_suite(b, tag, samples=40, seed=1)
        assert rep.passed, rep.failures()

    @pytest.mark.parametrize("tag", groupoid.SPACE_TAGS)
    def test_groupoid_laws(self, b, tag):
        rep = groupoid.groupoid_law_suite(b, tag, samples=25, seed=2)
        assert rep.passed, rep.failures()

    def test_all_zero_elements_exact(self, b):
        ops = PairTangentOps(b)
        rng = np.random.default_rng(3)
        p, q, r = b.random_point(rng), b.random_point(rng), b.random_point(rng)
        z_pq, z_qr = ops.zero(p, q), ops.zero(q, r)
        lhs = ops.product(ops.add(z_pq, z_pq), ops.add(z_qr, z_qr))
        rhs = ops.add(ops.product(z_pq, z_qr), ops.product(z_pq, z_qr))
        assert ops.distance(lhs, rhs) == 0.0

    def test_tangent_pair_product_matches_curve_oracle(self, b):
        # independent oracle: tangents as derivatives of curves in P x P;
        # the product of composable curves is the end-to-end curve
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(10):
            p, q, r = b.random_point(rng), b.random_point(rng), b.random_point(rng)
            v, w, z = (rng.standard_normal(b.tangent_dim) for _ in range(3))
            ops = PairTangentOps(b)
            xi = VBElement("T(PxP)", (TangentVec(p, v), TangentVec(q, w)))
            eta = VBElement("T(PxP)", (TangentVec(q, w), TangentVec(r, z)))
            prod = ops.product(xi, eta)

            def fd(point, coords):
                plus, minus = b.move(point, coords, h), b.move(point, coords, -h)
                dbase = (plus.base - minus.base) / (2 * h)
                dfib = b.group.log(np.linalg.inv(minus.fiber) @ plus.fiber) / (2 * h)
                return np.concatenate([dbase, dfib])

            np.testing.assert_allclose(prod.data[0].coords, v, atol=1e-13)
            np.testing.assert_allclose(prod.data[1].coords, z, atol=1e-13)
            # the finite-difference representation reproduces the stored coordinates
            assert np.max(np.abs(fd(p, v) - v)) <= 1e-9
            assert np.max(np.abs(fd(r, z) - z)) <= 1e-9

    def test_algebra_triple_product_exact(self, b):
        ops = space_ops(b, "PxgxP")
        rng = np.random.default_rng(5)
        p, q, r = b.random_point(rng), b.random_point(rng), b.random_point(rng)
        x = rng.standard_normal(3)
        prod = ops.product(VBElement("PxgxP", (p, x, q)), VBElement("PxgxP", (q, x, r)))
        assert prod.data[0] is p and prod.data[2] is r
        np.testing.assert_allclose(prod.data[1], x)


class TestCotangentPairStructure:
    def test_source_target_of_identity(self, b):
        rng = np.random.default_rng(6)
        phi = b.random_cotangent(rng)
        ops = CotangentPairOps(b)
        eps = ops.identity(phi)
        assert ops.side_distance(ops.source(eps), phi) <= 1e-14
        assert ops.side_distance(ops.target(eps), phi) <= 1e-14
        # eps(phi) = (phi, -phi)
        np.testing.assert_allclose(eps.data[1].coords, -phi.coords, atol=1e-14)

    def test_identity_times_inverse(self, b):
        ops = CotangentPairOps(b)
        rng = np.random.default_rng(7)
        el = ops.random(rng, b.random_point(rng), b.random_point(rng))
        prod = ops.product(el, ops.inverse(el))
        ident = ops.identity(ops.target(el))
        assert ops.distance(prod, ident) <= 1e-13

    def test_delta_involution_intertwines(self, b):
        # delta(phi, psi) = (phi, -psi) maps (s)-structure to the plain pair groupoid
        ops = CotangentPairOps(b)
        plain = PairTangentOps(b)  # used only for the structural pattern
        rng = np.random.default_rng(8)
        p, q, r = b.random_point(rng), b.random_point(rng), b.random_point(rng)
        a = ops.random(rng, p, q)
        bb = groupoid._with_target(ops, ops.random(rng, q, r), ops.source(a))
        prod = ops.delta_involution(ops.product(a, bb))
        da, db = ops.delta_involution(a), ops.delta_involution(bb)
        # plain pair product: (phi, psi)(psi, lam) = (phi, lam) with matching middles
        assert np.max(np.abs(da.data[1].coords - (-db.data[0].coords) * -1)) <= 1e-13
        np.testing.assert_allclose(prod.data[0].coords, da.data[0].coords, atol=1e-13)
        np.testing.assert_allclose(prod.data[1].coords, db.data[1].coords, atol=1e-13)


class TestDualStructure:
    def test_zero_covector_has_zero_sides(self, b):
        dual = DualOfPairTangent(b)
        ops = CotangentPairOps(b)
        rng = np.random.default_rng(9)
        zero = ops.zero(b.random_point(rng), b.random_point(rng))
        assert np.linalg.norm(dual.dual_target(zero).coords) == 0.0
        assert np.linalg.norm(dual.dual_source(zero).coords) == 0.0

    def test_suite(self, b):
        rep = dual_structure_suite(b, samples=15, seed=10, taus=100)
        assert rep.passed, rep.failures()

    def test_composition_rejects_mismatch(self, b):
        dual = DualOfPairTangent(b)
        rng = np.random.default_rng(11)
        p, q, r = b.random_point(rng), b.random_point(rng), b.random_point(rng)
        Phi = VBElement("T*PxT*P", (b.random_cotangent(rng, point=p), b.random_cotangent(rng, point=q)))
        Psi = VBElement("T*PxT*P", (b.random_cotangent(rng, point=r), b.random_cotangent(rng, point=p)))
        with pytest.raises(ValueError):
            dual.compose(Psi, Phi)


class TestCores:
    def test_dimensions_match_contract(self, b):
        rng = np.random.default_rng(12)
        p = b.random_point(rng)
        dim_p = b.tangent_dim
        assert core_compute(b, "T(PxP)", p)[0] == dim_p
        assert core_compute(b, "PxgxP", p)[0] == 0
        assert core_compute(b, "quot(TPxTP)", p)[0] == dim_p
        assert core_compute(b, "T*gauge", p)[0] == b.d

    def test_suite_50_fibers(self, b):
        rep = core_suite(b, fibers=50, seed=13)
        assert rep.passed, rep.failures()

    def test_gauge_core_elements_annihilate_momentum(self, b):
        # core of the gauge cotangent groupoid: classes <(phi, 0)> with J(phi) = 0
        rng = np.random.default_rng(14)
        p = b.random_point(rng)
        phi = CotangentSample(p, rng.standard_normal(b.d), np.zeros(b.n))
        el = VBElement("T*PxT*P", (phi, CotangentSample(p, np.zeros(b.d), np.zeros(b.n))))
        assert tv0_membership_residual(b, el) == 0.0
        assert np.linalg.norm(b.momentum(phi)) == 0.0


class TestGaugeDualGroupoid:
    def test_inverse_law(self, b):
        rng = np.random.default_rng(15)
        p, q = b.random_point(rng), b.random_point(rng)
        el = VBElement("Pxg*xP", (p, rng.standard_normal(3), q))
        ops = CoalgebraTripleOps(b)
        prod = ops.product(el, ops.inverse(el))
        ident = ops.identity(el.data[0])
        assert ops.distance(prod, ident) <= 1e-14

    def test_i2_star_morphism_on_composable_pairs(self, b):
        ops = CotangentPairOps(b)
        coal = space_ops(b, "Pxg*xP")
        rng = np.random.default_rng(16)
        for _ in range(10):
            p, q, r = b.random_point(rng), b.random_point(rng), b.random_point(rng)
            x = ops.random(rng, p, q)
            y = groupoid._with_target(ops, ops.random(rng, q, r), ops.source(x))
            lhs = i2_star(b, ops.product(x, y))
            rhs = coal.product(i2_star(b, x), i2_star(b, y))
            assert coal.distance(lhs, rhs) <= 1e-12

    def test_j2_zero_iff_annihilator(self, b):
        rng = np.random.default_rng(17)
        p, q = b.random_point(rng), b.random_point(rng)
        phi = b.random_cotangent(rng, point=p)
        psi = CotangentSample(q, rng.standard_normal(b.d), -b.momentum(phi))
        el = VBElement("T*PxT*P", (phi, psi))
        assert np.linalg.norm(j2(b, el)) <= 1e-14
        assert tv0_membership_residual(b, el) <= 1e-14

    def test_suite(self, b):
        rep = momentum_morphism_suite(b, samples=40, seed=18)
        assert rep.passed, rep.failures()


class TestSES:
    def test_rank_table_so3_over_2d(self, b):
        rep = ses_fiber_check(b, "duzyVtrojka", samples=10, seed=19)
        assert rep.passed, rep.failures()
        dims = rep.extras["rank_table"]["dims"]
        assert dims == [3, 10, 7]  # g -> TP x TP -> quotient over an SO(3)/2D-base fiber

    @pytest.mark.parametrize("sid", ["duzyVtrojka", "duzyVdual", "Adual", "quotiented"])
    def test_sequences_pass(self, b, sid):
        rep = ses_fiber_check(b, sid, samples=50, seed=20)
        assert rep.passed, rep.failures()

    def test_i2_injective(self, b):
        # I_2(p, X, q) = (vert_p X, vert_q X) has full column rank everywhere
        rng = np.random.default_rng(21)
        p, q = b.random_point(rng), b.random_point(rng)
        f, _, _ = groupoid._seq_matrices(b, "duzyVtrojka", p, q)
        assert np.linalg.matrix_rank(f) == b.n

    def test_quot_rep_kills_vertical_shift(self, b):
        rng = np.random.default_rng(22)
        p, q = b.random_point(rng), b.random_point(rng)
        v, w = rng.standard_normal(b.tangent_dim), rng.standard_normal(b.tangent_dim)
        x = b.group.random_algebra(rng)
        el = VBElement("T(PxP)", (TangentVec(p, v), TangentVec(q, w)))
        shifted = VBElement("T(PxP)", (TangentVec(p, v + b.vertical_lift(x)), TangentVec(q, w + b.vertical_lift(x))))
        r1, r2 = quot_rep(b, el), quot_rep(b, shifted)
        assert np.max(np.abs(r1.data[0].coords - r2.data[0].coords)) <= 1e-12
        assert np.max(np.abs(r1.data[1].coords - r2.data[1].coords)) <= 1e-12

    def test_core_alternating_sum(self, b):
        rep = core_suite(b, fibers=5, seed=23)
        assert any(c.name == "core_alternating_sum" and c.passed for c in rep.checks)
