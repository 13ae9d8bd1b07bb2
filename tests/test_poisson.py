import dataclasses
import sys

import numpy as np
import pytest

from gaugemech import bundle, fd, liealg, poisson, poisson_groupoid, semidirect
from gaugemech.bundle import BoxBase, BundleSpec, ConnectionData, CotangentSample
from gaugemech.poisson import (
    ChartError,
    PoissonSpace,
    ScalarField,
    bracket_property_suite,
    canonical_cotangent,
    casimir_fields,
    coadjoint_orbit,
    coordinate_field,
    dual_pair_check,
    jacobi_check,
    leaf_structure,
    lie_poisson,
    magnetic_term,
    product_space,
    quotient_cotangent,
    random_polynomial,
)
from gaugemech.poisson_groupoid import groupoid_action_suite

import builders


def so3_bundle(conn_matrix=None):
    g = liealg.so3()
    mat = np.array([[0.3, -0.1], [0.0, 0.2], [0.1, 0.4]]) if conn_matrix is None else conn_matrix
    return BundleSpec(g, builders.connection_from_matrix(mat), BoxBase([[-1.0, 1.0], [-1.0, 1.0]]))


def rescaled_so3():
    """so3 with its basis scaled by 2, so its structure constants are too: no rule may be read off the unit basis."""
    return liealg.LieGroupSpec("rot", 3, 3, 2.0 * liealg.so3().basis)


def heis_bundle():
    return BundleSpec(liealg.heisenberg3(), builders.connection_from_matrix(np.array([[0.2, 0.0], [0.1, -0.3], [0.0, 0.4]])),
                      BoxBase([[-1.0, 1.0], [-1.0, 1.0]]))


def u1_bundle():
    t1 = liealg.torus(1)
    terms = [[[(-0.5, (0, 1))]], [[(0.5, (1, 0))]]]
    return BundleSpec(t1, ConnectionData(2, 1, terms), BoxBase([[-1.0, 1.0], [-1.0, 1.0]]))


class TestBracketEval:
    def test_bracket_with_self_vanishes(self):
        lp = lie_poisson(liealg.so3())
        rng = np.random.default_rng(1)
        f = random_polynomial(rng, 3, ())
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
        f, g = random_polynomial(rng, 3, (2,)).unstack()
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
                s = b.random_cotangents(rng, ())
                assert np.linalg.norm(s.point.fiber - b.group.identity()) > 1e-3
                f, h = random_polynomial(rng, q.dim, (2,)).unstack()
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
        f, g = random_polynomial(rng, 5, (2,)).unstack()
        x = rng.standard_normal(5)
        manual = 0.0
        bvec = sp.bivector(x)
        manual = float(f.gradient(x) @ bvec @ g.gradient(x))
        assert abs(sp.bracket(f, g, x) - manual) <= 1e-9

    def test_bivector_equals_einsum_reference(self):
        # the matmul form must reproduce einsum("ijk,k->ij") bit for bit
        spaces = [
            canonical_cotangent(2),
            lie_poisson(semidirect.so3_r3().H),
            quotient_cotangent(so3_bundle()),
            product_space([canonical_cotangent(1), lie_poisson(liealg.heisenberg3())]),
        ]
        assert [sp.kind for sp in spaces] == ["canonical", "lie_poisson", "quotient", "product"]
        rng = np.random.default_rng(12)
        for sp in spaces:
            for _ in range(200):
                x = rng.standard_normal(sp.dim) * 10.0 ** rng.uniform(-6, 6, sp.dim)
                ref = np.einsum("ijk,k->ij", sp.linear, x) + sp.const
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
        s = b.random_cotangents(rng, ())
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
        x, f, g = poisson._sample_point(space, rng, (25,)), random_polynomial(rng, space.dim, (25,), 3), random_polynomial(rng, space.dim, (25,))
        stacked = space.bracket(f, g, x)
        assert stacked.shape == (25,)
        assert np.array_equal(stacked, [space.bracket(_row(f, i), _row(g, i), x[i]) for i in range(25)])
        assert np.array_equal(space.bivector(x), [space.bivector(y) for y in x])
        assert np.array_equal(f(x), [_row(f, i)(x[i]) for i in range(25)])

    @pytest.mark.parametrize("b", [so3_bundle(), heis_bundle()], ids=lambda b: b.name)
    def test_cotangent_bracket_rows_equal_single_calls(self, b):
        rng = np.random.default_rng(31)
        dim = quotient_cotangent(b).dim
        s = b.random_cotangents(rng, (25,))
        (f, g), h = random_polynomial(rng, dim, (2, 25)).unstack(), random_polynomial(rng, b.n, (25,))
        lifted = poisson.cotangent_bracket(b, poisson.invariant_lift(b, f), poisson.invariant_lift(b, g), s)
        polar = poisson.cotangent_bracket(b, poisson.invariant_lift(b, f), poisson._on_momentum(h), s)
        assert lifted.shape == polar.shape == (25,)
        for i in range(25):
            si = bundle.CotangentSample(bundle.Point(s.point.base[i], s.point.fiber[i]), s.a[i], s.b[i])
            fi = poisson.invariant_lift(b, _row(f, i))
            assert poisson.cotangent_bracket(b, fi, poisson.invariant_lift(b, _row(g, i)), si) == lifted[i]
            assert poisson.cotangent_bracket(b, fi, poisson._on_momentum(_row(h, i)), si) == polar[i]

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_block_draw_is_a_stack_of_polynomials(self, degree):
        # one block per coefficient, whatever the number of polynomials: each row a polynomial of the degree
        calls = []
        p = random_polynomial(builders.CountingGenerator(np.random.default_rng(32), calls), 5, (2, 6), degree)
        assert calls == ["normal"] * (3 + (degree >= 3))
        assert (p.c0.shape, p.c1.shape, p.c2.shape, p.c3.shape) == ((2, 6), (2, 6, 5), (2, 6, 5, 5), (2, 6, 5))
        assert np.array_equal(p.c2, p.c2.swapaxes(-1, -2))
        assert (np.any(p.c2) == (degree >= 2)) and (np.any(p.c3) == (degree >= 3))
        x = np.random.default_rng(33).standard_normal((6, 5))
        for i, row in enumerate(p.unstack()):
            assert np.array_equal(row(x), [_row(row, j)(x[j]) for j in range(6)])
            assert np.array_equal(row.c1, p.c1[i])


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
                                 (fd, "central", "fd.central"), (poisson, "cotangent_bracket", "cotangent_bracket"),
                                 (poisson_groupoid, "cotangent_bracket", "poisson_groupoid.cotangent_bracket")):
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


def translation_bundle():
    return BundleSpec(liealg.translation_group(2), ConnectionData.flat(2, 2), BoxBase([[-1.0, 1.0], [-1.0, 1.0]]))


def so3_orbit(mu0, seed):
    return coadjoint_orbit(liealg.so3(), np.array(mu0), seed=seed)


# (suite, one run at n samples that passes); a run with a Casimir and one without, and magnetic closedness on a
# 2-d base (padded triples) and on a 3-d one
DRAWING_SUITES = {
    "bracket_properties": (bracket_property_suite, lambda n: bracket_property_suite(quotient_cotangent(so3_bundle()), trials=n, seed=1).passed),
    "jacobi-degree3": (jacobi_check, lambda n: jacobi_check(quotient_cotangent(so3_bundle()), trials=n, seed=1, degree=3) <= poisson.JACOBI_TOL),
    "dual_pair-so3": (dual_pair_check, lambda n: dual_pair_check(so3_bundle(), trials=n, seed=1).passed),
    "dual_pair-translations": (dual_pair_check, lambda n: dual_pair_check(translation_bundle(), trials=n, seed=1).passed),
    "leaf_structure": (leaf_structure, lambda n: leaf_structure(so3_bundle(), so3_orbit([0.0, 0.0, 1.0], 50), samples=n, seed=51).passed),
    "magnetic_term": (magnetic_term, lambda n: magnetic_term(u1_bundle(), np.array([1.0]), samples=n, seed=54)[1].passed),
    "magnetic_term-3d": (magnetic_term, lambda n: magnetic_term(BundleSpec(liealg.torus(1), ConnectionData.flat(3, 1), BoxBase([[-1.0, 1.0]] * 3)),
                                                                np.array([1.0]), samples=n, seed=54)[1].passed),
    "groupoid_action": (groupoid_action_suite, lambda n: groupoid_action_suite(so3_bundle(), so3_orbit([0.3, -0.5, 0.8], 52), samples=n, seed=53).passed),
}


def test_drawing_suites_cover_every_suite():
    suites = {name for mod in (poisson, poisson_groupoid) for name in vars(mod) if name.endswith(("_suite", "_check"))}
    assert {suite.__name__ for suite, _ in DRAWING_SUITES.values()} == suites | {"leaf_structure", "magnetic_term"}


@pytest.mark.parametrize("key", sorted(DRAWING_SUITES))
def test_draws_do_not_scale_with_the_sample_count(key, monkeypatch):
    # each variable is drawn once as a block, so doubling the samples makes the same generator calls
    suite, run = DRAWING_SUITES[key]
    calls = builders.counted_streams(monkeypatch, sys.modules[suite.__module__])
    drawn = []
    for n in (7, 14):
        calls.clear()
        assert run(n)
        drawn.append(list(calls))
    assert drawn[0] == drawn[1] and drawn[0]


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


class TestCasimirs:
    @pytest.mark.parametrize("factory", [
        liealg.so3,
        liealg.heisenberg3,
        lambda: liealg.translation_group(3),
        lambda: liealg.torus(2),
        lambda: semidirect.so3_r3().H,
    ])
    def test_commute_with_random_polynomials(self, factory):
        g = factory()
        lp = lie_poisson(g)
        rng = np.random.default_rng(40)
        for c in casimir_fields(g):
            for _ in range(10):
                f = random_polynomial(rng, g.dim, (), degree=3)
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


def package_fields() -> list[tuple[str, int, ScalarField]]:
    """(label, dim, field) of every ScalarField the package builds."""
    from gaugemech.cli import BUILTIN_SCENARIOS

    groups = [liealg.so3(), liealg.heisenberg3(), liealg.torus(1), liealg.translation_group(3), semidirect.so3_r3().H]
    out = [(f"{g.name}:{c.name}", g.dim, c) for g in groups for c in casimir_fields(g)]
    out.append(("coordinate_field", 4, coordinate_field(1, 4)))
    tops = {name: BUILTIN_SCENARIOS[name]["simulate"] for name in ("heavy-top-lagrange", "heavy-top-free")}
    tops["general-axis-top"] = {"inertia": [1.0, 2.0, 3.0], "mgl": 0.7, "axis": [0.3, -0.2, 0.9]}
    for name, cfg in tops.items():
        top = semidirect.heavy_top_model(cfg["inertia"], cfg["mgl"], cfg["axis"])
        out += [(f"{name}:{label}", 6, q) for label, q in top.monitors().items()]  # "energy" is the Hamiltonian
    return out


PACKAGE_FIELDS = package_fields()


@pytest.mark.parametrize("label, dim, field", PACKAGE_FIELDS, ids=[f[0] for f in PACKAGE_FIELDS])
def test_field_is_one_formula_for_points_and_stacks(label, dim, field):
    # each row of a stack has the bits of its one-point call, and a one-point call gives a Python float
    rng = np.random.default_rng(44)
    rows = rng.standard_normal((200, dim)) * 10.0 ** rng.uniform(-3, 3, (200, 1))
    rows[::7, 0] = -0.0
    points = [field(row) for row in rows]
    assert all(type(v) is float for v in points)
    for stack in (rows, rows.reshape(4, 50, dim)):
        values = field(stack)
        assert type(values) is np.ndarray and values.shape == stack.shape[:-1]
        assert np.array_equal(values.reshape(-1).view(np.int64), np.array(points).view(np.int64)), label


def test_field_that_ignores_the_stack_is_rejected():
    # x[0] * x[1] is a one-point formula: on a stack it would multiply two rows
    field = ScalarField(lambda x: x[0] * x[1], name="q p")
    assert field(np.array([2.0, 3.0, 5.0])) == 6.0
    # on a (3, 3) stack the mixed rows have the stack's shape; x[None] tells them apart
    for stack in (np.ones((4, 3)), np.arange(9.0).reshape(3, 3), np.arange(36.0).reshape(3, 4, 3)):
        with pytest.raises(ValueError, match="one value per point"):
            field(stack)
    # a stack-correct formula on a (3, 3) stack gives each row's value
    assert np.array_equal(ScalarField(lambda x: x[..., 0] * x[..., 1])(np.arange(9.0).reshape(3, 3)), [0.0, 12.0, 42.0])


@pytest.mark.parametrize("label, dim, field", PACKAGE_FIELDS, ids=[f[0] for f in PACKAGE_FIELDS])
def test_fd_gradient_of_a_stack_is_one_row_per_point(label, dim, field):
    # without an exact gradient, each point of a stack gets the bits of its one-point central differences
    numeric = ScalarField(field.fn, name=field.name)
    rows = np.random.default_rng(45).standard_normal((6, dim))
    single = np.array([numeric.gradient(row) for row in rows])
    assert single.shape == (6, dim)
    for stack in (rows, rows.reshape(2, 3, dim)):
        grads = numeric.gradient(stack)
        assert grads.shape == stack.shape
        assert np.array_equal(grads.reshape(-1, dim).view(np.int64), single.view(np.int64)), label


@pytest.mark.parametrize("label, dim, field", PACKAGE_FIELDS, ids=[f[0] for f in PACKAGE_FIELDS])
def test_exact_gradient_of_a_stack_is_one_row_per_point(label, dim, field):
    # the exact gradient, like the field, is one formula: each point of a stack gets the bits of its
    # one-point call, signed zeros included
    assert field.grad is not None, label
    rows = np.random.default_rng(47).standard_normal((6, dim))
    rows[::2, 0] = -0.0
    single = np.array([field.gradient(row) for row in rows])
    assert single.shape == (6, dim)
    for stack in (rows, rows.reshape(2, 3, dim)):
        grads = field.gradient(stack)
        assert grads.shape == stack.shape, label
        assert np.array_equal(grads.reshape(-1, dim).view(np.int64), single.view(np.int64)), label


def test_exact_gradient_that_ignores_the_stack_is_rejected():
    # [x[1] * x[2], x[0] * x[2], x[0] * x[1]] is a one-point formula: on a stack it multiplies rows
    field = ScalarField(lambda x: x[..., 0] * x[..., 1] * x[..., 2], lambda x: np.array([x[1] * x[2], x[0] * x[2], x[0] * x[1]]), name="q p r")
    assert np.array_equal(field.gradient(np.array([2.0, 3.0, 5.0])), [15.0, 10.0, 6.0])
    # on (3, 3) and (3, 4, 3) stacks the mixed rows have the stack's shape; x[None] tells them apart
    for stack in (np.ones((4, 3)), np.ones((5, 2, 3)), np.ones((3, 3)), np.arange(36.0).reshape(3, 4, 3)):
        with pytest.raises(ValueError, match="one row per point"):
            field.gradient(stack)


def test_stacked_polynomial_fields_pass_the_leading_axis_check():
    # jacobi_check and bracket_property_suite differentiate fields over stacked polynomials, one per
    # trial: with as many trials as so3* has coordinates, the x[None] re-evaluation must still fit
    space = lie_poisson(liealg.so3())
    assert 0.0 <= poisson.jacobi_check(space, trials=3, seed=5) <= poisson.JACOBI_TOL
    assert poisson.bracket_property_suite(space, trials=3, seed=5).passed


def test_fd_gradient_goes_through_the_field_shape_check():
    field = ScalarField(lambda x: x[0] * x[1], name="q p")
    with pytest.raises(ValueError, match="one value per point"):
        field.gradient(np.array([2.0, 3.0, 5.0]))


def test_cotangent_grads_call_fn_once():
    b = so3_bundle()
    rng = np.random.default_rng(46)
    q = quotient_cotangent(b)
    s, f = b.random_cotangents(rng, (5,)), random_polynomial(rng, q.dim, (5,))
    lift = poisson.invariant_lift(b, ScalarField(f))
    calls = []

    def counted(sample):
        calls.append(sample.a.shape)
        return lift.fn(sample)

    grads = poisson.cotangent_grads(b, poisson.CotangentFn(counted), s)
    assert calls == [(4 * (b.d + b.n), 5, b.d)]  # 2(d + n) directions, each displaced both ways
    exact = poisson.cotangent_grads(b, poisson.invariant_lift(b, f), s)
    for block, want in zip(grads, exact):
        assert block.shape == want.shape
        np.testing.assert_allclose(block, want, rtol=0, atol=1e-8)


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
        b = BundleSpec(t1, ConnectionData.flat(2, 1), BoxBase([[-1.0, 1.0], [-1.0, 1.0]]))
        two_form, rep = magnetic_term(b, np.array([1.0]), samples=6, seed=26)
        assert rep.passed
        rng = np.random.default_rng(27)
        m, rho = b.random_base(rng, ()), rng.standard_normal(2)
        assert abs(two_form(m, rho, rng.standard_normal(4), rng.standard_normal(4))) <= 1e-9

    def test_three_dimensional_base(self):
        # three base directions fill the closedness triple with no fiber padding
        t1 = liealg.torus(1)
        box = [[-1.0, 1.0]] * 3
        flat = BundleSpec(t1, ConnectionData.flat(3, 1), BoxBase(box))
        curved = BundleSpec(t1, ConnectionData(3, 1, [[[(-0.5, (0, 1, 0))]], [[(0.5, (1, 0, 0)), (0.3, (0, 0, 1))]], [[]]]), BoxBase(box))
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
        m2 = b.random_base(rng, ())
        a2 = rng.standard_normal(2)
        # the identity arrow at the class (m2, -a2, beta)
        lam = poisson_groupoid.PairClassPoint(m2, np.eye(3), m2, -a2, beta, a2, -beta)
        y = poisson_groupoid.PairClassPoint(m2, np.eye(3), b.random_base(rng, ()), -a2, beta, rng.standard_normal(2), rng.standard_normal(3))
        z = poisson_groupoid._pair_product(lam, y)
        assert np.linalg.norm(poisson_groupoid._pair_t(b, z) - poisson_groupoid._pair_t(b, lam)) <= 1e-12
        assert np.linalg.norm(poisson_groupoid._pair_s(z) - poisson_groupoid._pair_s(y)) <= 1e-12

    @pytest.mark.parametrize("make_group, mu0", [
        (liealg.heisenberg3, [0.2, -0.4, 1.0]),
        (lambda: liealg.torus(2), [0.3, -0.7]),
        (rescaled_so3, [0.4, -1.1, 0.7]),
    ], ids=["heisenberg3", "t2", "so3-rescaled-basis"])
    def test_orbit_connectivity_runs_for_every_group(self, make_group, mu0):
        # the arrow between two leaf points comes from the group elements that drew them, for any group
        g = make_group()
        b = BundleSpec(g, ConnectionData.flat(2, g.dim), BoxBase([[-1.0, 1.0], [-1.0, 1.0]]))
        rep = groupoid_action_suite(b, coadjoint_orbit(g, np.array(mu0), seed=33), samples=3, seed=34)
        (check,) = [c for c in rep.checks if c.name == "orbit_connectivity"]
        assert check.passed and check.tol == 1e-9, check
        assert "orbit_connectivity" not in rep.extras
        assert rep.passed, rep.failures()


GROUP_FACTORS = {
    "so3": lambda: [liealg.so3()],
    "heisenberg3": lambda: [liealg.heisenberg3()],
    "r3": lambda: [liealg.translation_group(3)],
    "t2": lambda: [liealg.torus(2)],
    "so3 x r3 factors": lambda: [semidirect.so3_r3().K, semidirect.so3_r3().N],
    "so3 x| r3 assembled": lambda: [semidirect.so3_r3().H],
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
