import dataclasses

import numpy as np
import pytest

from gaugemech import bundle, fd, liealg, poisson, semidirect
from gaugemech.bundle import BundleSpec, ConnectionData, CotangentSample
from gaugemech.poisson import (
    ChartError,
    PoissonSpace,
    ScalarField,
    bracket_property_suite,
    canonical_cotangent,
    casimir_fields,
    coadjoint_orbit,
    coadjoint_transport,
    coordinate_field,
    dual_pair_check,
    groupoid_action_suite,
    jacobi_check,
    leaf_structure,
    lie_poisson,
    magnetic_term,
    product_space,
    quotient_cotangent,
    random_polynomial,
)


def so3_bundle(conn_matrix=None):
    g = liealg.so3()
    mat = np.array([[0.3, -0.1], [0.0, 0.2], [0.1, 0.4]]) if conn_matrix is None else conn_matrix
    return BundleSpec("TrivialProduct", g, ConnectionData.from_matrix(mat), base_box=[[-1.0, 1.0], [-1.0, 1.0]])


def heis_bundle():
    return BundleSpec("TrivialProduct", liealg.heisenberg3(), ConnectionData.from_matrix(np.array([[0.2, 0.0], [0.1, -0.3], [0.0, 0.4]])),
                      base_box=[[-1.0, 1.0], [-1.0, 1.0]])


def u1_bundle():
    t1 = liealg.torus(1)
    terms = [[[(-0.5, (0, 1))]], [[(0.5, (1, 0))]]]
    return BundleSpec("TrivialProduct", t1, ConnectionData(2, 1, terms), base_box=[[-1.0, 1.0], [-1.0, 1.0]])


class TestBracketEval:
    def test_bracket_with_self_vanishes(self):
        lp = lie_poisson(liealg.so3())
        rng = np.random.default_rng(1)
        f = random_polynomial(rng, 3)
        x = rng.standard_normal(3)
        assert abs(lp.bracket(f, f, x)) <= 1e-14

    def test_so3_coordinate_functions(self):
        # structure-constants oracle: {mu_1, mu_2}(mu) = <mu, [e_1, e_2]> = mu_3
        lp = lie_poisson(liealg.so3())
        mu = np.array([0.4, -0.2, 0.9])
        val = lp.bracket(coordinate_field(0, 3), coordinate_field(1, 3), mu)
        assert abs(val - mu[2]) <= 1e-14

    def test_abelian_brackets_vanish(self):
        lp = lie_poisson(liealg.translation_group(3))
        rng = np.random.default_rng(2)
        f, g = random_polynomial(rng, 3), random_polynomial(rng, 3)
        assert abs(lp.bracket(f, g, rng.standard_normal(3))) <= 1e-14

    def test_canonical_closed_form(self):
        sp = canonical_cotangent(1)
        f = ScalarField(lambda x: float(x[0] ** 2), lambda x: np.array([2 * x[0], 0.0]))
        g = ScalarField(lambda x: float(x[1]), lambda x: np.array([0.0, 1.0]))
        x = np.array([0.7, -0.3])
        assert abs(sp.bracket(f, g, x) - 2 * x[0]) <= 1e-14

    def test_quotient_matches_invariant_lift(self):
        # the closed-form T*M x g* bracket equals the T*P bracket of invariant
        # lifts at samples in a random, non-identity gauge
        for b in (so3_bundle(), heis_bundle()):
            q = quotient_cotangent(b)
            rng = np.random.default_rng(3)
            for _ in range(20):
                s = CotangentSample(b.point_at(*b.random_point_coords(rng)), *b.random_covector(rng))
                assert np.linalg.norm(s.point.fiber - b.group.identity()) > 1e-3
                f, h = random_polynomial(rng, q.dim), random_polynomial(rng, q.dim)
                closed = q.bracket(f, h, b.class_coords(s))
                exact = poisson.cotangent_bracket(b, poisson.invariant_lift(b, f), poisson.invariant_lift(b, h), s)
                fd = poisson.cotangent_bracket(b, poisson.invariant_lift(b, ScalarField(f)), poisson.invariant_lift(b, ScalarField(h)), s)
                assert abs(closed - exact) <= 1e-12
                assert abs(closed - fd) <= 1e-8

    def test_product_box_only_on_leading_factor(self):
        q = quotient_cotangent(so3_bundle())
        assert product_space([q, canonical_cotangent(1)]).box is q.box
        with pytest.raises(ValueError):
            product_space([canonical_cotangent(1), q])

    def test_product_space(self):
        sp = product_space([canonical_cotangent(1), lie_poisson(liealg.so3())])
        assert sp.dim == 5
        rng = np.random.default_rng(4)
        f, g = random_polynomial(rng, 5), random_polynomial(rng, 5)
        x = rng.standard_normal(5)
        manual = 0.0
        bvec = sp.bivector(x)
        manual = float(f.gradient(x) @ bvec @ g.gradient(x))
        assert abs(sp.bracket(f, g, x) - manual) <= 1e-9

    def test_bivector_equals_einsum_reference(self):
        # the matmul form must reproduce einsum("ijk,k->ij") bit for bit
        spaces = [
            canonical_cotangent(2),
            lie_poisson(semidirect.heavy_top_model([1.0, 2.0, 3.0], 1.0, [0.0, 0.0, 1.0]).sd.group_spec()),
            quotient_cotangent(so3_bundle()),
            product_space([canonical_cotangent(1), lie_poisson(liealg.heisenberg3())]),
        ]
        assert [sp.kind for sp in spaces] == ["canonical", "lie_poisson", "quotient", "product"]
        rng = np.random.default_rng(12)
        for sp in spaces:
            for _ in range(200):
                x = rng.standard_normal(sp.dim) * 10.0 ** rng.uniform(-6, 6, sp.dim)
                ref = np.einsum("ijk,k->ij", sp.linear, x)
                if sp.const is not None:
                    ref = ref + sp.const
                assert np.array_equal(sp.bivector(x), ref), sp.name

    def test_out_of_chart(self):
        q = quotient_cotangent(so3_bundle())
        with pytest.raises(ChartError):
            q.bracket(coordinate_field(0, 7), coordinate_field(1, 7), np.concatenate([[5.0, 0.0], np.zeros(5)]))

    def test_properties_quantified(self):
        for sp in (lie_poisson(liealg.so3()), canonical_cotangent(2), quotient_cotangent(so3_bundle())):
            rep = bracket_property_suite(sp, trials=200, seed=5)
            assert rep.passed, (sp.name, rep.failures())


class TestJacobi:
    def test_canonical_quadratics(self):
        assert jacobi_check(canonical_cotangent(2), trials=10, seed=6) <= 1e-8

    def test_lie_poisson_linear(self):
        assert jacobi_check(lie_poisson(liealg.so3()), trials=10, seed=7, degree=1) <= 1e-10

    def test_quotient_fd_chain(self):
        assert jacobi_check(quotient_cotangent(so3_bundle()), trials=6, seed=8) <= 1e-6


class TestDualPair:
    def test_constant_functions_commute_exactly(self):
        b = so3_bundle()
        const_f = ScalarField(lambda x: 3.0, lambda x: np.zeros(7))
        const_h = ScalarField(lambda x: -1.0, lambda x: np.zeros(3))
        rng = np.random.default_rng(9)
        s = CotangentSample(b.point_at(*b.random_point_coords(rng)), *b.random_covector(rng))
        F = poisson.invariant_lift(b, const_f)
        H = poisson.CotangentFn(lambda ss: const_h(ss.b), lambda ss: (np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(3)))
        assert abs(poisson.cotangent_bracket(b, F, H, s)) == 0.0

    def test_polarity_suite(self):
        rep = dual_pair_check(so3_bundle(), trials=100, seed=10)
        assert rep.passed, rep.failures()
        assert rep.max_residual <= 1e-7
        assert [c.name for c in rep.checks] == ["polarity", "casimir_commutes", "quotient_matches_lift"]


def _row(p, i):
    return poisson.Polynomial(p.c0[i], p.c1[i], p.c2[i], p.c3[i])


class TestStacks:
    """A stack is evaluated by the same code as one point: each row has the bits of its single call."""

    @pytest.mark.parametrize("space", [lie_poisson(liealg.so3()), lie_poisson(liealg.heisenberg3()),
                                       quotient_cotangent(so3_bundle()), quotient_cotangent(heis_bundle())], ids=lambda sp: sp.name)
    def test_bracket_rows_equal_single_calls(self, space):
        rng = np.random.default_rng(30)
        x, f, g = bundle.draw_samples(25, lambda: (poisson._sample_point(space, rng), random_polynomial(rng, space.dim, 3), random_polynomial(rng, space.dim)))
        stacked = space.bracket(f, g, x)
        assert stacked.shape == (25,)
        assert np.array_equal(stacked, [space.bracket(_row(f, i), _row(g, i), x[i]) for i in range(25)])
        assert np.array_equal(space.bivector(x), [space.bivector(y) for y in x])
        assert np.array_equal(f(x), [_row(f, i)(x[i]) for i in range(25)])

    @pytest.mark.parametrize("b", [so3_bundle(), heis_bundle()], ids=lambda b: b.name)
    def test_cotangent_bracket_rows_equal_single_calls(self, b):
        rng = np.random.default_rng(31)
        dim = quotient_cotangent(b).dim
        base, fiber, a, bb, f, g, h = bundle.draw_samples(25, lambda: (*b.random_point_coords(rng), *b.random_covector(rng),
                                                                       random_polynomial(rng, dim), random_polynomial(rng, dim), random_polynomial(rng, b.n)))
        s = bundle.CotangentSample(b.point_at(base, fiber), a, bb)
        lifted = poisson.cotangent_bracket(b, poisson.invariant_lift(b, f), poisson.invariant_lift(b, g), s)
        polar = poisson.cotangent_bracket(b, poisson.invariant_lift(b, f), poisson._on_momentum(h), s)
        assert lifted.shape == polar.shape == (25,)
        for i in range(25):
            si = bundle.CotangentSample(bundle.Point(s.point.base[i], s.point.fiber[i]), a[i], bb[i])
            fi = poisson.invariant_lift(b, _row(f, i))
            assert poisson.cotangent_bracket(b, fi, poisson.invariant_lift(b, _row(g, i)), si) == lifted[i]
            assert poisson.cotangent_bracket(b, fi, poisson._on_momentum(_row(h, i)), si) == polar[i]

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_stacked_draw_consumes_stream_as_repeated_calls(self, degree):
        one, many = np.random.default_rng(32), np.random.default_rng(32)
        (stacked,) = bundle.draw_samples(6, lambda: (random_polynomial(many, 5, degree),))
        for i in range(6):
            p = random_polynomial(one, 5, degree)
            for c in ("c0", "c1", "c2", "c3"):
                assert np.array_equal(getattr(stacked, c)[i], getattr(p, c))
        assert one.normal() == many.normal()


class TestCallCounts:
    """Each suite evaluates its brackets once over the stacked trials, so the call count does not grow with them."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"PoissonSpace.bracket": 0, "cotangent_bracket": 0}
        bracket, cot = PoissonSpace.bracket, poisson.cotangent_bracket

        def counted_bracket(self, *args):
            seen["PoissonSpace.bracket"] += 1
            return bracket(self, *args)

        def counted_cot(*args):
            seen["cotangent_bracket"] += 1
            return cot(*args)

        monkeypatch.setattr(PoissonSpace, "bracket", counted_bracket)
        monkeypatch.setattr(poisson, "cotangent_bracket", counted_cot)
        return seen

    @pytest.mark.parametrize("suite", [
        lambda trials: bracket_property_suite(quotient_cotangent(so3_bundle()), trials=trials, seed=1),
        lambda trials: jacobi_check(quotient_cotangent(so3_bundle()), trials=trials, seed=1),
        lambda trials: dual_pair_check(so3_bundle(), trials=trials, seed=1),
        lambda trials: dual_pair_check(heis_bundle(), trials=trials, seed=1),
    ], ids=["properties", "jacobi", "dual_pair-so3", "dual_pair-heisenberg"])
    def test_calls_do_not_grow_with_trials(self, counts, suite):
        per_trials = []
        for trials in (3, 30):
            for key in counts:
                counts[key] = 0
            suite(trials)
            per_trials.append(dict(counts))
        assert per_trials[0] == per_trials[1]
        assert sum(per_trials[0].values()) > 0


class TestLeafCallCounts:
    """The leaves suites evaluate each check once over the stacked samples, so their call counts do not grow with them."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {}
        for owner, name, key in ((liealg.LieGroupSpec, "log", "LieGroupSpec.log"), (BundleSpec, "sigma", "BundleSpec.sigma"),
                                 (fd, "central", "fd.central"), (poisson, "cotangent_bracket", "cotangent_bracket")):
            def counted(*args, original=getattr(owner, name), key=key):
                seen[key] += 1
                return original(*args)

            seen[key] = 0
            monkeypatch.setattr(owner, name, counted)
        return seen

    @pytest.mark.parametrize("suite", [
        lambda samples: leaf_structure(so3_bundle(), coadjoint_orbit(liealg.so3(), np.array([0.0, 0.0, 1.0]), seed=50), samples=samples, seed=51),
        lambda samples: groupoid_action_suite(so3_bundle(), coadjoint_orbit(liealg.so3(), np.array([0.3, -0.5, 0.8]), seed=52), samples=samples, seed=53),
        lambda samples: magnetic_term(u1_bundle(), np.array([1.0]), samples=samples, seed=54)[1],
    ], ids=["leaf_structure", "groupoid_action", "magnetic_term"])
    def test_calls_do_not_grow_with_samples(self, counts, suite):
        per_samples = []
        for samples in (3, 12):
            counts.update(dict.fromkeys(counts, 0))
            assert suite(samples).passed
            per_samples.append(dict(counts))
        assert per_samples[0] == per_samples[1]
        assert sum(per_samples[0].values()) > 0


class TestLeafStacks:
    """The stacked leaves suites see a defect confined to the last sample of a stack."""

    def test_graph_isotropy_sees_a_corrupted_last_row(self, monkeypatch):
        b = so3_bundle()
        orb = coadjoint_orbit(b.group, np.array([0.0, 0.0, 1.0]), seed=55)
        assert groupoid_action_suite(b, orb, samples=4, seed=56).passed
        velocity = fd.group_velocity

        def last_row_off(G, minus, plus, h):
            out = velocity(G, minus, plus, h)
            out[..., -1, :] += 1e-6
            return out

        monkeypatch.setattr(fd, "group_velocity", last_row_off)
        failed = [c.name for c in groupoid_action_suite(b, orb, samples=4, seed=56).failures()]
        assert failed == ["graph_isotropy"]

    def test_leaf_structure_sees_a_corrupted_last_row(self, monkeypatch):
        b = so3_bundle()
        orb = coadjoint_orbit(b.group, np.array([0.0, 0.0, 1.0]), seed=57)
        assert leaf_structure(b, orb, samples=4, seed=58).passed
        sigma = BundleSpec.sigma

        def last_row_off(self, base, chi):
            # the section's covector (a, chi) off in the last row; the checks compare sigma with itself at
            # the same arguments, so only the chi that iota* reads back shows the defect
            rep = sigma(self, base, chi).rep
            a, chi = rep.a.copy(), rep.b.copy()
            a[..., -1, :] += 1e-6
            chi[..., -1, :] += 1e-6
            return bundle.QuotientClass(bundle.CotangentSample(rep.point, a, chi))

        monkeypatch.setattr(BundleSpec, "sigma", last_row_off)
        failed = [c.name for c in leaf_structure(b, orb, samples=4, seed=58).failures()]
        assert failed == ["pi_sigma_surjective"]


class TestOrbits:
    def test_zero_point_orbit(self):
        orb = coadjoint_orbit(liealg.so3(), np.zeros(3), seed=11)
        assert orb.dim == 0

    def test_so3_sphere(self):
        orb = coadjoint_orbit(liealg.so3(), np.array([0.0, 0.0, 1.0]), seed=12)
        assert orb.dim == 2
        # samples stay on the Casimir level set
        assert all(orb.membership_residual(s) <= 1e-10 for s in orb.samples)

    def test_abelian_orbits_are_points(self):
        orb = coadjoint_orbit(liealg.torus(2), np.array([0.3, -0.7]), seed=13)
        assert orb.dim == 0
        assert all(np.linalg.norm(s - orb.mu0) <= 1e-12 for s in orb.samples)

    def test_orbit_dimension_even(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            mu0 = rng.standard_normal(3)
            assert coadjoint_orbit(liealg.so3(), mu0, seed=15).dim % 2 == 0

    def test_transport_rescaled_basis(self):
        so3 = liealg.so3()
        g = liealg.LieGroupSpec("rot", 3, 3, 2.0 * so3.basis, 2.0 * so3.structure, so3.membership_residual)
        rng = np.random.default_rng(16)
        mu1 = rng.standard_normal(3)
        for mu2 in (g.Ad_star(np.linalg.inv(g.exp(g.random_algebra(rng)))) @ mu1, -mu1):
            w = coadjoint_transport(g, mu1, mu2)
            assert g.membership_defect(w) <= g.membership_tol
            assert np.linalg.norm(g.Ad_star(np.linalg.inv(w)) @ mu1 - mu2) <= 1e-10

    def test_transport(self):
        g = liealg.so3()
        rng = np.random.default_rng(16)
        mu1 = rng.standard_normal(3)
        rot = g.exp(g.random_algebra(rng))
        mu2 = g.Ad_star(np.linalg.inv(rot)) @ mu1
        w = coadjoint_transport(g, mu1, mu2)
        assert np.linalg.norm(g.Ad_star(np.linalg.inv(w)) @ mu1 - mu2) <= 1e-10


class TestCasimirs:
    @pytest.mark.parametrize("factory", [
        liealg.so3,
        liealg.heisenberg3,
        lambda: liealg.translation_group(3),
        lambda: liealg.torus(2),
        lambda: semidirect.so3_r3().group_spec(),
    ])
    def test_commute_with_random_polynomials(self, factory):
        g = factory()
        lp = lie_poisson(g)
        rng = np.random.default_rng(40)
        for c in casimir_fields(g):
            for _ in range(10):
                f = random_polynomial(rng, g.dim, degree=3)
                assert abs(lp.bracket(c, f, rng.standard_normal(g.dim))) <= 1e-8

    def test_follow_structure_not_name(self):
        heis_as_so3 = dataclasses.replace(liealg.heisenberg3(), name="so3")
        (c,) = casimir_fields(heis_as_so3)
        mu = np.array([0.3, -1.2, 0.7])
        assert c(mu) == mu[2]
        (c,) = casimir_fields(dataclasses.replace(liealg.so3(), name="rot"))
        assert c(mu) == mu @ mu
        orbit = coadjoint_orbit(heis_as_so3, np.array([1.0, 0.0, 0.5]), seed=41)
        assert orbit.membership_residual(np.array([5.0, -3.0, 0.5])) == 0.0


class TestLeafStructure:
    def test_so3_sphere_leaf(self):
        b = so3_bundle()
        orb = coadjoint_orbit(b.group, np.array([0.0, 0.0, 1.0]), seed=17)
        rep = leaf_structure(b, orb, samples=15, seed=18)
        assert rep.passed, rep.failures()
        assert rep.extras["leaf_dim"] == 6  # 2 * dim(P/G) + dim O = 4 + 2

    def test_zero_orbit_leaf_is_reduced_cotangent(self):
        b = so3_bundle()
        orb = coadjoint_orbit(b.group, np.zeros(3), seed=19)
        rep = leaf_structure(b, orb, samples=10, seed=20)
        assert rep.passed, rep.failures()
        assert rep.extras["leaf_dim"] == 2 * b.d

    def test_abelian_affine_leaf(self):
        b = u1_bundle()
        orb = coadjoint_orbit(b.group, np.array([0.8]), seed=21)
        rep = leaf_structure(b, orb, samples=10, seed=22)
        assert rep.passed, rep.failures()
        assert rep.extras["orbit_dim"] == 0

    def test_sigma_independence_of_connection(self):
        # leaf membership and dimension do not depend on the chosen connection
        orb_seed, mu0 = 23, np.array([0.0, 0.0, 1.0])
        b1 = so3_bundle()
        b2 = so3_bundle(conn_matrix=np.array([[0.0, 0.5], [-0.3, 0.1], [0.2, 0.0]]))
        o1 = coadjoint_orbit(b1.group, mu0, seed=orb_seed)
        r1 = leaf_structure(b1, o1, samples=10, seed=24)
        r2 = leaf_structure(b2, o1, samples=10, seed=24)
        assert r1.passed and r2.passed
        assert r1.extras["leaf_dim"] == r2.extras["leaf_dim"]


class TestMagneticTerm:
    def test_u1_curvature_frozen_value(self):
        two_form, rep = magnetic_term(u1_bundle(), np.array([1.0]), samples=8, seed=25)
        assert rep.passed, rep.failures()
        m, rho = np.array([0.3, -0.2]), np.array([0.1, 0.7])
        ex, ey = np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])
        # oracle: d((-y dx + x dy)/2) = dx ^ dy
        assert abs(two_form(m, rho, ex, ey) - 1.0) <= 1e-7

    def test_flat_connection_vanishes(self):
        t1 = liealg.torus(1)
        b = BundleSpec("TrivialProduct", t1, ConnectionData.flat(2, 1), base_box=[[-1.0, 1.0], [-1.0, 1.0]])
        two_form, rep = magnetic_term(b, np.array([1.0]), samples=6, seed=26)
        assert rep.passed
        rng = np.random.default_rng(27)
        m, rho = b.random_base(rng), rng.standard_normal(2)
        assert abs(two_form(m, rho, rng.standard_normal(4), rng.standard_normal(4))) <= 1e-9

    def test_three_dimensional_base(self):
        # three base directions fill the closedness triple with no fiber padding
        t1 = liealg.torus(1)
        box = [[-1.0, 1.0]] * 3
        flat = BundleSpec("TrivialProduct", t1, ConnectionData.flat(3, 1), base_box=box)
        curved = BundleSpec("TrivialProduct", t1, ConnectionData(3, 1, [[[(-0.5, (0, 1, 0))]], [[(0.5, (1, 0, 0)), (0.3, (0, 0, 1))]], [[]]]), base_box=box)
        for b in (flat, curved):
            two_form, rep = magnetic_term(b, np.array([1.0]), samples=6, seed=26)
            assert rep.passed, rep.failures()
            assert {"closed", "matches_curvature_oracle"} <= {c.name for c in rep.checks}

    def test_zero_character_vanishes(self):
        two_form, rep = magnetic_term(u1_bundle(), np.array([0.0]), samples=6, seed=28)
        rng = np.random.default_rng(29)
        m = np.array([0.2, 0.1])
        assert abs(two_form(m, rng.standard_normal(2), rng.standard_normal(4), rng.standard_normal(4))) <= 1e-9

    def test_rejects_non_character(self):
        with pytest.raises(ValueError):
            magnetic_term(so3_bundle(), np.array([0.0, 0.0, 1.0]))


class TestGroupoidAction:
    def test_suite(self):
        b = so3_bundle()
        orb = coadjoint_orbit(b.group, np.array([0.0, 0.0, 1.0]), seed=30)
        rep = groupoid_action_suite(b, orb, samples=6, seed=31)
        assert rep.passed, rep.failures()

    def test_identity_arrow_acts_trivially(self):
        b = so3_bundle()
        rng = np.random.default_rng(32)
        beta = rng.standard_normal(3)
        m2 = b.random_base(rng)
        a2 = rng.standard_normal(2)
        # the identity arrow at the class (m2, -a2, beta)
        lam = poisson.PairClassPoint(m2, np.eye(3), m2, -a2, beta, a2, -beta)
        y = poisson.PairClassPoint(m2, np.eye(3), b.random_base(rng), -a2, beta, rng.standard_normal(2), rng.standard_normal(3))
        z = poisson._pair_product(lam, y)
        assert np.linalg.norm(poisson._pair_t(b, z) - poisson._pair_t(b, lam)) <= 1e-12
        assert np.linalg.norm(poisson._pair_s(z) - poisson._pair_s(y)) <= 1e-12

    def test_orbit_connectivity_skipped_without_transport_rule(self):
        g = liealg.heisenberg3()
        b = BundleSpec("TrivialProduct", g, ConnectionData.flat(2, 3), base_box=[[-1.0, 1.0], [-1.0, 1.0]])
        orb = coadjoint_orbit(g, np.array([0.2, -0.4, 1.0]), seed=33)
        with pytest.raises(NotImplementedError):
            coadjoint_transport(g, orb.mu0, orb.samples[0])
        rep = groupoid_action_suite(b, orb, samples=3, seed=34)
        assert "orbit_connectivity" not in [c.name for c in rep.checks]
        assert rep.extras["orbit_connectivity"].startswith("skipped")
        assert rep.passed, rep.failures()


GROUP_FACTORS = {
    "so3": lambda: [liealg.so3()],
    "heisenberg3": lambda: [liealg.heisenberg3()],
    "r3": lambda: [liealg.translation_group(3)],
    "t2": lambda: [liealg.torus(2)],
    "so3 x r3 factors": lambda: [semidirect.so3_r3().K, semidirect.so3_r3().N],
    "so3 x| r3 assembled": lambda: [semidirect.so3_r3().group_spec()],
}


class TestCanonicalTwoForm:
    @pytest.mark.parametrize("name", sorted(GROUP_FACTORS))
    def test_matches_exp_chart_fd(self, name):
        # every tangent component is nonzero, N-factor velocities and covector changes included
        factors = GROUP_FACTORS[name]()
        dim = sum(f.dim for f in factors)
        rng = np.random.default_rng(35)
        for _ in range(10):
            mu, v1, v2 = rng.standard_normal(dim), rng.standard_normal(2 * dim), rng.standard_normal(2 * dim)
            closed = v1 @ poisson.canonical_two_form(factors, mu) @ v2
            assert abs(semidirect._product_dgamma_fd(factors, mu, v1, v2) - closed) <= 1e-7

    def test_vector_factor_is_a_translation_group(self):
        mu = np.random.default_rng(36).standard_normal(5)
        by_dim = poisson.canonical_two_form([2, liealg.so3()], mu)
        by_group = poisson.canonical_two_form([liealg.translation_group(2), liealg.so3()], mu)
        assert np.array_equal(by_dim, by_group)
        assert np.array_equal(by_dim, -by_dim.T)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poisson.canonical_two_form([2, liealg.so3()], np.zeros(4))


def _flip_bracket_block(omega):
    dim = omega.shape[0] // 2
    omega[:dim, :dim] *= -1.0
    return omega


def _flip_pairing(omega):
    dim = omega.shape[0] // 2
    omega[:dim, dim:] *= -1.0
    omega[dim:, :dim] *= -1.0
    return omega


FORM_CHECKS = {"omega_a_equals_dgamma_K", "contraction_identity_group_momentum",
               "contraction_identity_factored_n_component", "graph_isotropy"}


def _form_check_failures():
    sd = semidirect.so3_r3()
    b = so3_bundle()
    reps = [
        semidirect.reduced_sequence_suite(sd, samples=4, seed=37),
        semidirect.momentum_form_suite(sd, samples=4, seed=38),
        groupoid_action_suite(b, coadjoint_orbit(b.group, np.array([0.3, -0.5, 0.8]), seed=39), samples=2, seed=40),
    ]
    checks = [c for r in reps for c in r.checks if c.name in FORM_CHECKS]
    assert {c.name for c in checks} == FORM_CHECKS
    return {c.name for c in checks if not c.passed}


@pytest.mark.parametrize("mutate", [_flip_bracket_block, _flip_pairing])
def test_canonical_form_mutant_is_caught(monkeypatch, mutate):
    assert _form_check_failures() == set()
    original = poisson.canonical_two_form
    mutant = lambda factors, covector: mutate(original(factors, covector))
    monkeypatch.setattr(poisson, "canonical_two_form", mutant)
    monkeypatch.setattr(semidirect, "canonical_two_form", mutant)
    assert _form_check_failures()
