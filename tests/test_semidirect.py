import dataclasses
import json
import tracemalloc
from functools import partial

import numpy as np
import pytest

from gaugemech import bundle, cli, dynamics, fd, liealg, poisson, semidirect
from gaugemech.bundle import CotangentSample, Point
from gaugemech.semidirect import (
    SemidirectSpec,
    coadjoint_factor_transport,
    group_momentum,
    heavy_top_model,
    lifted_action,
    lifted_action_formula,
    so3_r3,
    total_bundle,
    tstar_sigma,
    tstar_sigma_inverse,
)

import builders
import cotangent_flow


@pytest.fixture(scope="module")
def sd():
    return so3_r3()


def random_pair(spec, rng):
    """One random pair (k, u), its K and N coordinates at scale 0.4."""
    return spec.pair_at(spec.K.random_algebra(rng, 0.4), spec.N.random_algebra(rng, 0.4))


def factored(k, theta, u, chi):
    """The point (k, theta, u, chi) of T*K x T*N, arguments in that order, as the total bundle's sample (Point(k, u), theta, chi)."""
    return CotangentSample(Point(k, u), theta, chi)


def hom4(k, v):
    """Independent oracle: the 4x4 homogeneous-matrix picture of SO(3) x| R^3."""
    out = np.eye(4)
    out[:3, :3] = k
    out[:3, 3] = k @ v
    return out


class TestGroupStructure:
    def test_k_subgroup(self, sd):
        rng = np.random.default_rng(1)
        k, l = sd.K.exp(sd.K.random_algebra(rng)), sd.K.exp(sd.K.random_algebra(rng))
        e_n = sd.N.identity()
        prod = sd.product((k, e_n), (l, e_n))
        np.testing.assert_allclose(prod[0], k @ l, atol=1e-13)
        np.testing.assert_allclose(prod[1], e_n, atol=1e-13)

    def test_n_subgroup(self, sd):
        rng = np.random.default_rng(2)
        u, w = sd.N.exp(sd.N.random_algebra(rng)), sd.N.exp(sd.N.random_algebra(rng))
        e_k = sd.K.identity()
        prod = sd.product((e_k, u), (e_k, w))
        np.testing.assert_allclose(prod[0], e_k, atol=1e-14)
        np.testing.assert_allclose(prod[1], u @ w, atol=1e-13)

    def test_product_matches_homogeneous_oracle(self, sd):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k1, k2 = sd.K.exp(sd.K.random_algebra(rng)), sd.K.exp(sd.K.random_algebra(rng))
            v1, v2 = rng.standard_normal(3), rng.standard_normal(3)
            prod = sd.product((k1, sd.N.exp(v1)), (k2, sd.N.exp(v2)))
            oracle = hom4(k1, v1) @ hom4(k2, v2)
            np.testing.assert_allclose(prod[0], oracle[:3, :3], atol=1e-12)
            np.testing.assert_allclose(prod[1][:3, 3], np.linalg.inv(oracle[:3, :3]) @ oracle[:3, 3], atol=1e-12)

    def test_spec_suite(self, sd):
        rep = semidirect.spec_suite(sd, samples=30, seed=5)
        assert rep.passed, rep.failures()

    def test_assembled_group_is_valid(self, sd):
        assert liealg.validate_spec(sd.H, seed=6).passed

    def test_se3_structure_constants(self, sd):
        # [k_i, n_j] = n_{i x j}: the classic semidirect algebra relations
        H = sd.H
        e = np.eye(6)
        np.testing.assert_allclose(H.bracket(e[0], e[1]), e[2], atol=1e-12)
        np.testing.assert_allclose(H.bracket(e[0], e[4]), e[5], atol=1e-12)  # [k1, n2] = n3
        np.testing.assert_allclose(H.bracket(e[3], e[4]), np.zeros(6), atol=1e-12)

    def test_se3_structure_constants_are_exact(self, sd):
        # the integer basis of so3 x| r3 gives constants 0 and +-1 only, 18 of them nonzero: the
        # compiled heavy-top field writes each one as a literal, so no rounding noise may enter
        c = sd.H.structure
        assert set(c.ravel().tolist()) <= {0.0, 1.0, -1.0}
        assert np.count_nonzero(c) == 18


def generic_route(sd):
    """The same product with R(l) = exp(r(log l)) in place of the closed form."""
    spec = SemidirectSpec(sd.K, sd.N, sd.rho_generators)
    spec._inverse_conjugator = False  # the generators -e_i would give the closed form
    return spec


@pytest.mark.parametrize("route", [so3_r3, lambda: generic_route(so3_r3())], ids=["closed", "generic"])
class TestEmbedding:
    def test_embed_is_homomorphism(self, route):
        spec = route()
        rng = np.random.default_rng(23)
        for _ in range(10):
            a, b = random_pair(spec, rng), random_pair(spec, rng)
            err = spec.embed(*spec.product(a, b)) - spec.embed(*a) @ spec.embed(*b)
            assert np.max(np.abs(err)) <= 1e-13

    def test_split_inverts_embed(self, route):
        spec = route()
        rng = np.random.default_rng(24)
        for _ in range(10):
            k, u = random_pair(spec, rng)
            k_back, u_back = spec.split(spec.embed(k, u))
            assert np.max(np.abs(k_back - k)) <= 1e-14
            assert np.max(np.abs(u_back - u)) <= 1e-13

    def test_rho_inf_is_derivative_of_rho(self, route):
        # oracle: rho(l) is an automorphism of N, so rho(l)(exp x) = exp(rho_inf(l) x)
        spec = route()
        rng = np.random.default_rng(25)
        for _ in range(10):
            l, x = spec.K.exp(spec.K.random_algebra(rng)), spec.N.random_algebra(rng)
            rho_inf = spec.rho_inf(l)
            # R(l) is not an element of N: conjugate by it and its matrix inverse, one basis matrix at a time
            r, r_inv = spec.R(l), np.linalg.inv(spec.R(l))
            by_columns = np.stack([spec.N.to_coords(r @ e @ r_inv) for e in spec.N.basis], axis=1)
            assert np.max(np.abs(rho_inf - by_columns)) <= 1e-14
            assert np.max(np.abs(spec.N.log(spec.rho(l, spec.N.exp(x))) - rho_inf @ x)) <= 1e-12


def test_generic_route_matches_closed_form():
    closed = so3_r3()
    generic = generic_route(closed)
    rng = np.random.default_rng(26)
    assert closed._inverse_conjugator and not generic._inverse_conjugator
    for _ in range(10):
        l = closed.K.exp(closed.K.random_algebra(rng))
        exp_route = liealg.expm(np.tensordot(closed.K.log(l), closed.rho_generators, axes=1))
        assert np.array_equal(generic.R(l), exp_route)
        assert np.max(np.abs(exp_route - closed.R(l))) <= 1e-13


def test_other_generators_take_the_exp_route():
    # -e_(i-1), a cyclic relabelling that keeps rho an action by automorphisms, is not the generator
    # of R(l) = diag(l^-1, I), so R stays exp(r(log l))
    base = so3_r3()
    spec = SemidirectSpec(base.K, base.N, np.roll(base.rho_generators, 1, axis=0))
    l = base.K.exp(base.K.random_algebra(np.random.default_rng(27)))
    assert not spec._inverse_conjugator
    assert np.array_equal(spec.R(l), liealg.expm(np.tensordot(base.K.log(l), spec.rho_generators, axes=1)))


class TestTrivialization:
    def test_identity_pair_embeds_to_identity(self, sd):
        np.testing.assert_allclose(sd.embed(*sd.identity_pair()), np.eye(7), atol=1e-14)

    def test_roundtrip(self, sd):
        rng = np.random.default_rng(7)
        s = factored(sd.K.exp(sd.K.random_algebra(rng)), rng.standard_normal(3), sd.N.exp(sd.N.random_algebra(rng)), rng.standard_normal(3))
        beta = tstar_sigma(sd, s)
        back = tstar_sigma_inverse(sd, s.point.base, s.point.fiber, beta)
        assert np.linalg.norm(back.a - s.a) + np.linalg.norm(back.b - s.b) <= 1e-11

    def test_chi_zero_is_mu_pullback(self, sd):
        rng = np.random.default_rng(8)
        s = factored(sd.K.exp(sd.K.random_algebra(rng)), rng.standard_normal(3), sd.N.exp(sd.N.random_algebra(rng)), np.zeros(3))
        beta = tstar_sigma(sd, s)
        np.testing.assert_allclose(beta, sd.mu_dot().T @ s.a, atol=1e-12)

    def test_suite(self, sd):
        rep = semidirect.trivialization_suite(sd, samples=30, seed=9)
        assert rep.passed, rep.failures()


class TestLiftedAction:
    def test_identity_acts_trivially(self, sd):
        rng = np.random.default_rng(10)
        s = factored(sd.K.exp(sd.K.random_algebra(rng)), rng.standard_normal(3), sd.N.exp(sd.N.random_algebra(rng)), rng.standard_normal(3))
        moved = lifted_action(sd, s, sd.identity_pair())
        assert total_bundle(sd).sample_distance(moved, s) <= 1e-12

    def test_abelian_n_translation_preserves_chi(self, sd):
        # l = e: the N-component map is a right translation of the abelian N
        rng = np.random.default_rng(11)
        s = factored(sd.K.exp(sd.K.random_algebra(rng)), rng.standard_normal(3), sd.N.exp(sd.N.random_algebra(rng)), rng.standard_normal(3))
        w = sd.N.exp(sd.N.random_algebra(rng))
        moved = lifted_action(sd, s, (sd.K.identity(), w))
        np.testing.assert_allclose(moved.b, s.b, atol=1e-12)
        np.testing.assert_allclose(moved.a, s.a, atol=1e-12)

    def test_composition_law(self, sd):
        rng = np.random.default_rng(12)
        s = factored(sd.K.exp(sd.K.random_algebra(rng)), rng.standard_normal(3), sd.N.exp(sd.N.random_algebra(rng)), rng.standard_normal(3))
        g1, g2 = random_pair(sd, rng), random_pair(sd, rng)
        lhs = lifted_action(sd, lifted_action(sd, s, g1), g2)
        rhs = lifted_action(sd, s, sd.product(g1, g2))
        assert total_bundle(sd).sample_distance(lhs, rhs) <= 1e-10

    def test_closed_formula_matches_conjugated_lift(self, sd):
        rng = np.random.default_rng(13)
        for _ in range(10):
            s = factored(sd.K.exp(sd.K.random_algebra(rng)), rng.standard_normal(3), sd.N.exp(sd.N.random_algebra(rng)), rng.standard_normal(3))
            g = random_pair(sd, rng)
            assert total_bundle(sd).sample_distance(lifted_action(sd, s, g), lifted_action_formula(sd, s, g)) <= 1e-10


class TestMomentum:
    def test_at_identity_pair(self, sd):
        rng = np.random.default_rng(14)
        theta, chi = rng.standard_normal(3), rng.standard_normal(3)
        s = factored(sd.K.identity(), theta, sd.N.identity(), chi)
        jk, jn = group_momentum(sd, s)
        np.testing.assert_allclose(jk, theta, atol=1e-12)
        np.testing.assert_allclose(jn, chi, atol=1e-12)

    def test_n_component_matches_group_momentum_everywhere(self, sd):
        rng = np.random.default_rng(15)
        for _ in range(10):
            s = factored(sd.K.exp(sd.K.random_algebra(rng)), rng.standard_normal(3), sd.N.exp(sd.N.random_algebra(rng)), rng.standard_normal(3))
            _, jn_group = group_momentum(sd, s)
            np.testing.assert_allclose(jn_group, s.b, atol=1e-11)  # the factored J_N is chi

    def test_equivariance(self, sd):
        rep = semidirect.equivariance_suite(sd, samples=200, seed=16)
        assert rep.passed, rep.failures()
        assert rep.max_residual <= 1e-9

    def test_equivariance_fails_for_composed_group_momentum(self, sd):
        # the composed (TSigma_e)* J_H T*Sigma picks up a connection correction
        # off the identity slice and is NOT equivariant; only the factorized
        # momentum map satisfies the product equivariance law
        rng = np.random.default_rng(17)
        s = factored(sd.K.exp(sd.K.random_algebra(rng, 0.4)), rng.standard_normal(3), sd.N.exp(np.array([1.0, -0.7, 0.4])), rng.standard_normal(3))
        g = random_pair(sd, rng)
        t_k, _ = coadjoint_factor_transport(sd, g)
        jk0, _ = group_momentum(sd, s)
        jk1, _ = group_momentum(sd, lifted_action(sd, s, g))
        assert np.linalg.norm(jk1 - t_k @ jk0) > 1e-3

    def test_bundle_momentum_cross_check(self, sd):
        b = total_bundle(sd)
        rng = np.random.default_rng(18)
        for _ in range(10):
            s = b.random_cotangents(rng, ())
            np.testing.assert_allclose(b.momentum(s), s.b, atol=1e-12)  # the factored J_N is chi


class TestGroupChart:
    # the total bundle of K x| N is the bundle over the group chart GroupBase(K): its points,
    # moves and velocities are group elements and left-trivialized algebra coordinates

    def test_so3_so3_bundle_suites_pass_at_the_unified_tolerance(self):
        K = liealg.so3()
        sd = SemidirectSpec(K, liealg.so3(), -K.basis)
        b = total_bundle(sd)
        assert isinstance(b.base, bundle.GroupBase) and b.name == f"SemidirectTotal[{sd.name}]"
        reports = [bundle.action_suite(b, seed=40), bundle.momentum_suite(b, seed=41), bundle.anchor_pullback_suite(b, seed=42),
                   semidirect.momentum_cross_check_suite(sd, seed=43)]
        for rep in reports:
            assert rep.passed, rep.failures()
        (orbit,) = [c for c in reports[1].checks if c.name == "quotient_orbit_invariance"]
        assert orbit.tol == 1e-11

    def test_left_multiplying_group_move_fails_the_anchor_pullback(self, monkeypatch):
        # a move k exp(delta) has left-trivialized velocity delta; exp(delta) k does not, so the
        # finite-difference base velocity of the pullback check no longer pairs rho with dbase
        scenario = cli.BUILTIN_SCENARIOS["se3-verify"]
        b = total_bundle(semidirect.builtin_semidirect(scenario["semidirect"]))
        assert bundle.anchor_pullback_suite(b, samples=25, seed=scenario["seed"]).passed
        monkeypatch.setattr(bundle.GroupBase, "move", lambda self, base, delta: self.group.exp(delta) @ base)
        rep = bundle.anchor_pullback_suite(b, samples=25, seed=scenario["seed"])
        assert [c.name for c in rep.checks if not c.passed] == ["pullback_matches_canonical"]


class TestPullbackForm:
    def test_suite(self, sd):
        rep = semidirect.pullback_form_suite(sd, samples=20, seed=19)
        assert rep.passed, rep.failures()

    def test_momentum_form_suite(self, sd):
        rep = semidirect.momentum_form_suite(sd, samples=15, seed=30)
        assert rep.passed, rep.failures()
        assert rep.max_residual <= 1e-6

    def test_collective_dynamics_descends_for_abelian_n(self, sd):
        # f o J with f a function of (theta, chi): the flow on T*H projects to
        # an autonomous flow on T*K x n*; compare the honest T*H integration
        # against the reduced product-space field at T = 1
        H = sd.H
        nk = sd.K.dim
        inertia = np.array([1.0, 2.0, 3.0])
        c = np.array([0.4, -0.2, 0.7])

        def f(theta, chi):
            # one value per row of stacks, as the central differences of the body field take
            return 0.5 * np.vecdot(theta, theta / inertia) + chi @ c + 0.3 * np.vecdot(theta, chi)

        def f_full(h_mat, beta):
            k, u = sd.split(h_mat)
            s = semidirect.tstar_sigma_inverse(sd, k, u, beta)
            return f(s.a, s.b)

        rng = np.random.default_rng(31)
        k0 = sd.K.exp(sd.K.random_algebra(rng, 0.3))
        u0 = sd.N.exp(sd.N.random_algebra(rng, 0.3))
        theta0, chi0 = rng.standard_normal(3), rng.standard_normal(3)
        s0 = factored(k0, theta0, u0, chi0)
        beta0 = semidirect.tstar_sigma(sd, s0)
        h_step, n_steps = 5e-3, 200
        us, betas = cotangent_flow.integrate_cotangent(H, partial(cotangent_flow.body_cotangent_field, H, f_full), sd.embed(k0, u0), beta0, h_step, n_steps)
        k_t, u_t = sd.split(us[-1])
        s_t = semidirect.tstar_sigma_inverse(sd, k_t, u_t, betas[-1])

        # reduced flow: theta' = ad*_{grad_theta f} theta, chi frozen, k' = k xi
        def reduced_rhs(state):
            k_m = state[:9].reshape(3, 3)
            th = state[9:]
            grad = th / inertia + 0.3 * chi0
            return np.concatenate([(k_m @ sd.K.from_coords(grad)).reshape(-1), sd.K.ad_star(grad) @ th])

        state = np.concatenate([k0.reshape(-1), theta0])
        for _ in range(n_steps):
            k1 = reduced_rhs(state)
            k2 = reduced_rhs(state + 0.5 * h_step * k1)
            k3 = reduced_rhs(state + 0.5 * h_step * k2)
            k4 = reduced_rhs(state + h_step * k3)
            state = state + (h_step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        assert np.linalg.norm(s_t.b - chi0) <= 1e-6  # chi is conserved
        assert np.linalg.norm(s_t.a - state[9:]) <= 1e-6
        assert np.linalg.norm(s_t.point.base - state[:9].reshape(3, 3)) <= 1e-6


class TestReducedSequence:
    def test_suite(self, sd):
        rep = semidirect.reduced_sequence_suite(sd, samples=15, seed=20)
        assert rep.passed, rep.failures()

    def test_iota_after_a_star(self, sd):
        # iota* o a* maps theta to (k, 0)
        nk, nn = sd.K.dim, sd.N.dim
        a_mat = np.vstack([np.eye(nk), np.zeros((nn, nk))])
        i_mat = np.hstack([np.zeros((nn, nk)), np.eye(nn)])
        assert np.max(np.abs(i_mat @ a_mat)) == 0.0

    def test_total_bundle_suites(self, sd):
        b = total_bundle(sd)
        assert bundle.action_suite(b, samples=20, seed=21).passed
        assert bundle.momentum_suite(b, samples=30, seed=22).passed
        assert bundle.anchor_pullback_suite(b, samples=20, seed=23).passed


class TestHeavyTop:
    def test_bracket_matches_epsilon_oracle(self):
        # independent oracle: the classic coalgebra relations on so3* x r3*
        # {Pi_i, Pi_j} = eps_ijk Pi_k, {Pi_i, Gam_j} = eps_ijk Gam_k, {Gam, Gam} = 0
        m = heavy_top_model([1.0, 2.0, 3.0], 0.7, [0.0, 0.0, 1.0])
        rng = np.random.default_rng(24)
        x = rng.standard_normal(6)
        pi, gam = x[:3], x[3:]

        def eps_bracket(i, j):
            if i < 3 and j < 3:
                return float(np.cross(np.eye(3)[i], np.eye(3)[j]) @ pi)
            if i < 3 <= j:
                return float(np.cross(np.eye(3)[i], np.eye(3)[j - 3]) @ gam)
            if j < 3 <= i:
                return -eps_bracket(j, i)
            return 0.0

        for i in range(6):
            for j in range(6):
                val = m.space.bracket(poisson.coordinate_field(i, 6), poisson.coordinate_field(j, 6), x)
                assert abs(val - eps_bracket(i, j)) <= 1e-12, (i, j)

    def test_casimirs_commute_with_random_functions(self):
        m = heavy_top_model([1.0, 2.0, 3.0], 1.0, [0.0, 0.0, 1.0])
        rng = np.random.default_rng(25)
        worst = 0.0
        for _ in range(20):
            f = poisson.random_polynomial(rng, 6, ())
            x = rng.standard_normal(6)
            for c in m.casimirs:
                worst = max(worst, abs(m.space.bracket(c, f, x)))
        assert worst <= 1e-8

    def test_free_top_pi_dynamics_decouples(self):
        m = heavy_top_model([1.0, 2.0, 3.0], 0.0, [0.0, 0.0, 1.0])
        rng = np.random.default_rng(26)
        pi = rng.standard_normal(3)
        v1 = dynamics.ham_vector_field(m.space, m.hamiltonian, np.concatenate([pi, rng.standard_normal(3)]))
        v2 = dynamics.ham_vector_field(m.space, m.hamiltonian, np.concatenate([pi, rng.standard_normal(3)]))
        np.testing.assert_allclose(v1[:3], v2[:3], atol=1e-12)

    def test_lagrange_symmetry_conserves_pi3(self):
        m = heavy_top_model([1.5, 1.5, 0.8], 2.0, [0.0, 0.0, 1.0])
        x0 = np.array([0.4, -0.2, 0.7, 0.1, 0.3, 0.8])
        traj = dynamics.integrate(m.space, m.hamiltonian, x0, 1e-3, 2000)
        pi3 = traj.states[:, 2]
        assert np.max(np.abs(pi3 - pi3[0])) <= 1e-9

    def test_rejects_bad_inertia(self):
        with pytest.raises(ValueError):
            heavy_top_model([1.0, -2.0, 3.0], 1.0, [0.0, 0.0, 1.0])


class TestErrors:
    def test_nonabelian_n_leaf_check_skipped(self):
        # direct product with a nonabelian N: the [Gamma*]-leaf check is refused
        h3 = liealg.heisenberg3()
        k1 = liealg.translation_group(1)
        gens = np.zeros((1, 3, 3))
        sd_na = SemidirectSpec(k1, h3, gens)
        rep = semidirect.reduced_sequence_suite(sd_na, samples=5, seed=27)
        assert "skipped" in rep.extras.get("leaf_check", "")

    def test_rho_that_is_not_an_action_by_automorphisms_is_rejected(self, sd):
        # doubled rho generators: the basis of H leaves its span under commutators, so H is not built
        with pytest.raises(ValueError, match=r"'rho' does not act by automorphisms: the commutators of sd:so3\|r3 leave its span by 0.8"):
            SemidirectSpec(sd.K, sd.N, 2 * sd.rho_generators)


class TestHeavyTopCasimirs:
    def test_equal_derived(self):
        model = heavy_top_model([1.0, 2.0, 3.0], 1.0, [0.0, 0.0, 1.0])
        derived = poisson.casimir_fields(semidirect.so3_r3().H)
        assert [c.name for c in model.casimirs] == ["|Gamma|^2", "<Pi,Gamma>"]
        rng = np.random.default_rng(42)
        for _ in range(5):
            x = rng.standard_normal(6)
            for own, der in zip(model.casimirs, reversed(derived)):
                assert abs(own(x) - der(x)) <= 1e-14
                np.testing.assert_allclose(own.gradient(x), der.gradient(x), rtol=0, atol=1e-14)


class TestSerialization:
    def test_builtin_name_roundtrip(self, sd):
        doc = builders.sd_to_json(sd)
        doc["K"], doc["N"] = sd.K.name, sd.N.name
        back = semidirect.sd_from_json(doc, liealg.builtin_group)
        assert (back.K.name, back.N.name) == ("so3", "r3")
        rng = np.random.default_rng(30)
        l, u = sd.K.exp(sd.K.random_algebra(rng, 0.4)), sd.N.exp(sd.N.random_algebra(rng))
        np.testing.assert_allclose(back.rho(l, u), sd.rho(l, u), atol=1e-10)
        doc["K"] = "so4"
        with pytest.raises(KeyError):
            semidirect.sd_from_json(doc, liealg.builtin_group)

    def test_json_roundtrip(self, sd):
        doc = builders.sd_to_json(sd)
        back = semidirect.sd_from_json(doc, liealg.spec_from_json)
        rng = np.random.default_rng(28)
        l = sd.K.exp(sd.K.random_algebra(rng, 0.4))
        u = sd.N.exp(sd.N.random_algebra(rng))
        np.testing.assert_allclose(back.rho(l, u), sd.rho(l, u), atol=1e-10)
        assert semidirect.spec_suite(back, samples=10, seed=29).passed


def _last_row_perturbed(x):
    """A copy of a stack with 1e-6 added to its last row: a fault only the worst-row reduction sees."""
    out = np.array(x, dtype=float)
    out[-1] += 1e-6
    return out


class TestBatchedSuitesSeeLastRow:
    @pytest.mark.parametrize("suite, check", [(semidirect.equivariance_suite, "momentum_equivariance"),
                                              (semidirect.action_suite, "closed_formula_matches_lift")])
    def test_lifted_action_mutant(self, sd, monkeypatch, suite, check):
        assert suite(sd, samples=20, seed=3).passed
        original = semidirect.lifted_action

        def mutant(sd, s, g, beta=None):
            out = original(sd, s, g, beta)
            return CotangentSample(out.point, _last_row_perturbed(out.a), out.b) if out.a.ndim == 2 else out

        monkeypatch.setattr(semidirect, "lifted_action", mutant)
        assert check in {c.name for c in suite(sd, samples=20, seed=3).failures()}

    @pytest.mark.parametrize("suite", [semidirect.equivariance_suite, semidirect.action_suite])
    def test_ad_star_mutant(self, sd, monkeypatch, suite):
        original = liealg.LieGroupSpec.Ad_star

        def mutant(self, g):
            out = original(self, g)
            return _last_row_perturbed(out) if out.ndim == 3 else out

        monkeypatch.setattr(liealg.LieGroupSpec, "Ad_star", mutant)
        assert not suite(sd, samples=20, seed=3).passed

    def test_connection_form_mutant(self, sd, monkeypatch):
        assert semidirect.pullback_form_suite(sd, samples=20, seed=3).passed
        original = semidirect.connection_form
        monkeypatch.setattr(semidirect, "connection_form", lambda *args: _last_stack_row_perturbed(original(*args)))
        assert "pullback_identity" in {c.name for c in semidirect.pullback_form_suite(sd, samples=20, seed=3).failures()}

    def test_flow_lifted_action_mutant(self, sd, monkeypatch):
        assert semidirect.momentum_form_suite(sd, samples=20, seed=3).passed
        original = semidirect.lifted_action

        def mutant(sd, s, g):
            out = original(sd, s, g)
            return CotangentSample(out.point, _last_stack_row_perturbed(out.a), out.b)

        monkeypatch.setattr(semidirect, "lifted_action", mutant)
        assert "contraction_identity_group_momentum" in {c.name for c in semidirect.momentum_form_suite(sd, samples=20, seed=3).failures()}

    def test_dexp_left_mutant(self, sd, monkeypatch):
        # a constant shift of both ends of a central difference cancels, so the last row is scaled
        assert semidirect.reduced_sequence_suite(sd, samples=20, seed=3).passed
        original = semidirect.dexp_left

        def mutant(group, xi, dxi):
            out = original(group, xi, dxi)
            out[(-1,) * (out.ndim - 1)] *= 1 + 1e-4
            return out

        monkeypatch.setattr(semidirect, "dexp_left", mutant)
        assert "omega_a_equals_dgamma_K" in {c.name for c in semidirect.reduced_sequence_suite(sd, samples=20, seed=3).failures()}

    def test_a_star_mutant(self, sd, monkeypatch):
        b = total_bundle(sd)
        assert bundle.anchor_pullback_suite(b, samples=20, seed=3).passed
        original = bundle.BundleSpec.a_star

        def mutant(self, base, rho):
            rep = original(self, base, rho).rep
            return bundle.QuotientClass(CotangentSample(rep.point, _last_stack_row_perturbed(rep.a), rep.b))

        monkeypatch.setattr(bundle.BundleSpec, "a_star", mutant)
        assert "pullback_matches_canonical" in {c.name for c in bundle.anchor_pullback_suite(b, samples=20, seed=3).failures()}


def _last_stack_row_perturbed(x):
    """A copy of a stack with 1e-6 added to its last row along every leading axis (a single row too)."""
    out = np.array(x, dtype=float)
    out[(-1,) * (out.ndim - 1)] += 1e-6
    return out


@pytest.mark.parametrize("route", [so3_r3, lambda: generic_route(so3_r3())], ids=["closed", "generic"])
def test_connection_form_rows_equal_single_calls(route):
    spec = route()
    rng = np.random.default_rng(41)
    k, u = spec.random_pairs(rng, (12,))
    v = rng.standard_normal((12, spec.H.dim)) * 10.0 ** rng.uniform(-3, 1, (12, 1))
    stacked = semidirect.connection_form(spec, k, u, v)
    assert np.array_equal(stacked, [semidirect.connection_form(spec, k[i], u[i], v[i]) for i in range(12)])


@pytest.mark.parametrize("group", [liealg.so3(), liealg.heisenberg3(), liealg.translation_group(3), so3_r3().H], ids=lambda g: g.name)
def test_dexp_left_rows_equal_single_calls(group):
    # magnitudes from 1e-4 to 10, and zero rows, so rows stop their series at different terms
    rng = np.random.default_rng(42)
    xi = rng.standard_normal((20, group.dim)) * 10.0 ** rng.uniform(-4, 1, (20, 1))
    xi[::7] = 0.0
    dxi = rng.standard_normal((20, group.dim))
    stacked = poisson.dexp_left(group, xi, dxi)
    assert np.array_equal(stacked, [poisson.dexp_left(group, xi[i], dxi[i]) for i in range(20)])


def test_product_dgamma_fd_rows_equal_single_calls(sd):
    rng = np.random.default_rng(43)
    factors = [sd.K, sd.N]
    covector, v1, v2 = rng.standard_normal((12, 6)), rng.standard_normal((12, 12)), rng.standard_normal((12, 12))
    stacked = semidirect._product_dgamma_fd(factors, covector, v1, v2)
    single = [semidirect._product_dgamma_fd(factors, covector[i], v1[i], v2[i]) for i in range(12)]
    assert all(isinstance(x, float) for x in single)
    assert np.array_equal(stacked, single)


# the semidirect suites of the verify registry
SUITES = ("spec_suite", "trivialization_suite", "action_suite", "equivariance_suite", "pullback_form_suite",
          "momentum_form_suite", "reduced_sequence_suite", "momentum_cross_check_suite")


@pytest.fixture(scope="module")
def registry_samples():
    """The sample count the verify registry passes each semidirect suite, read by running its semidirect entries on recorders."""
    seen = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in SUITES:
            mp.setattr(semidirect, name, lambda sd, samples, seed, name=name: seen.setdefault(name, samples))
        for key, run in cli._suite_registry().items():
            if key.startswith("semidirect."):
                run({"semidirect": so3_r3()}, 0)
    return seen


def test_registry_runs_every_semidirect_suite(registry_samples):
    assert sorted(registry_samples) == sorted(SUITES)


@pytest.mark.parametrize("name", SUITES)
def test_draws_do_not_scale_with_the_sample_count(sd, name, monkeypatch):
    # each variable is drawn once as a block, so doubling the samples makes the same generator calls
    calls = builders.counted_streams(monkeypatch, semidirect)
    drawn = []
    for n in (7, 14):
        calls.clear()
        assert getattr(semidirect, name)(sd, samples=n, seed=4).passed
        drawn.append(list(calls))
    assert drawn[0] == drawn[1]


def _row_kernels(sd, n, seed):
    """The stacked kernels of the suites, each a function of the rows it evaluates, over n random rows."""
    rng = np.random.default_rng(seed)
    (k, l), (u, w) = sd.random_pairs(rng, (2, n))
    theta, chi, velocity = (rng.standard_normal((n, d)) for d in (sd.K.dim, sd.N.dim, sd.H.dim))

    def sample(r):
        return CotangentSample(Point(k[r], u[r]), theta[r], chi[r])

    return {
        "tstar_sigma": lambda r: tstar_sigma(sd, sample(r)),
        "lifted_action": lambda r: lifted_action(sd, sample(r), (l[r], w[r])),
        "lifted_action_formula": lambda r: lifted_action_formula(sd, sample(r), (l[r], w[r])),
        "coadjoint_factor_transport": lambda r: coadjoint_factor_transport(sd, (l[r], w[r])),
        "connection_form": lambda r: semidirect.connection_form(sd, k[r], u[r], velocity[r]),
        "rho_inf": lambda r: sd.rho_inf(l[r]),
    }


def _arrays(out):
    """The arrays of a kernel's result: a CotangentSample's point and covector, a tuple's entries, or the array itself."""
    if isinstance(out, CotangentSample):
        return [out.point.base, out.point.fiber, out.a, out.b]
    return list(out) if isinstance(out, tuple) else [out]


@pytest.mark.parametrize("kernel", ["tstar_sigma", "lifted_action", "lifted_action_formula", "coadjoint_factor_transport", "connection_form", "rho_inf"])
def test_every_row_has_the_bits_of_its_one_row_call(sd, kernel):
    # the suites evaluate each check once over the whole stack; at equivariance's 200 rows each row still
    # equals its one-row call, so the number of samples in a pass moves no residual
    n = 200
    f = _row_kernels(sd, n, seed=5)[kernel]
    stacked = _arrays(f(slice(None)))
    for i in range(n):
        one = _arrays(f(slice(i, i + 1)))
        assert len(one) == len(stacked) and all(np.array_equal(x[i], y[0]) for x, y in zip(stacked, one)), i


@pytest.mark.parametrize("name", SUITES)
def test_traced_memory_peak_is_bounded(sd, name, registry_samples):
    # one pass over the whole stack: at its registry sample count no suite peaks above 0.6 MB (equivariance's 200 samples, the largest, at about 0.5 MB)
    suite, n = getattr(semidirect, name), registry_samples[name]
    suite(sd, samples=n, seed=6)  # the first run fills the caches
    tracemalloc.start()
    try:
        suite(sd, samples=n, seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6e6


# -- the closed forms of the total group, read off the factors ---------------------------------------


def rebased(g, order, scales):
    """``g`` with the basis matrices scales[i] * e_order[i]."""
    return liealg.LieGroupSpec(g.name, g.dim, g.embed, g.basis[list(order)] * np.asarray(scales, dtype=float)[:, None, None])


def standard_rho(K, N):
    """The generators of rho(l)(u) = l^-1 u l on N's embedding: minus K's basis, padded."""
    pad = N.embed - K.embed
    return np.pad(-K.basis, ((0, 0), (0, pad), (0, pad)))


class TestRigidMotionDetection:
    def test_permuted_and_rescaled_bases_keep_the_closed_forms(self, monkeypatch):
        K = rebased(liealg.so3(), (2, 0, 1), (2.0, -1.0, 0.5))
        N = rebased(liealg.translation_group(3), (1, 2, 0), (0.25, 3.0, -1.0))
        H = SemidirectSpec(K, N, standard_rho(K, N)).H
        assert liealg.validate_spec(H).passed
        x = 0.3 * np.random.default_rng(80).standard_normal((50, H.dim))  # rotation angles below pi
        counts = builders.counted_generic_kernels(monkeypatch)
        elements = H.exp(x)
        logs = H.log(elements)
        closed = H.inverse(elements), H.Ad(elements), H.Ad_inv(elements)
        assert counts == {"logm": 0, "expm": 0, "inv": 0}
        assert np.max(np.abs(elements - liealg.expm(H.from_coords(x)))) <= 1e-14
        assert np.max(np.abs(logs - x)) <= 1e-14
        inverses = np.linalg.inv(elements)
        assert np.max(np.abs(closed[0] - inverses)) <= 1e-14
        # the frame of the rebased basis is not the identity: Ad goes through its pseudo-inverse
        assert np.max(np.abs(closed[1] - H.conjugation(elements, inverses))) <= 1e-13
        assert np.max(np.abs(closed[2] - H.conjugation(inverses, elements))) <= 1e-13

    @pytest.mark.parametrize("make", [
        lambda: SemidirectSpec(liealg.so3(), liealg.translation_group(3), np.zeros((3, 4, 4))),
        lambda: SemidirectSpec(liealg.so3(), liealg.so3(), -liealg.so3().basis),
    ], ids=["direct-product", "so3-on-so3"])
    def test_other_factors_or_rho_take_the_generic_route(self, make, monkeypatch):
        H = make().H
        counts = builders.counted_generic_kernels(monkeypatch)
        H.exp(np.full(H.dim, 0.1))
        assert counts["expm"] == 1

    def test_renamed_factors_give_byte_identical_reports(self, monkeypatch, tmp_path):
        base = so3_r3()
        K, N = (dataclasses.replace(g, name=f"renamed-{g.name}") for g in (base.K, base.N))
        renamed = SemidirectSpec(K, N, base.rho_generators, name=base.name)
        counts = builders.counted_generic_kernels(monkeypatch)
        for H in (renamed.H, SemidirectSpec(K, N, base.rho_generators).H):  # the default name sd:renamed-so3|renamed-r3 too
            elements = H.exp(np.full((4, H.dim), 0.2))
            for fn in (H.log, H.inverse, H.Ad):
                fn(elements)
        assert counts == {"logm": 0, "expm": 0, "inv": 0}
        assert cli.main(["verify", "se3-verify", "--out", str(tmp_path / "builtin")]) == 0
        monkeypatch.setattr(semidirect, "builtin_semidirect", lambda name: renamed)
        assert cli.main(["verify", "se3-verify", "--out", str(tmp_path / "renamed")]) == 0
        assert (tmp_path / "renamed" / "report.json").read_bytes() == (tmp_path / "builtin" / "report.json").read_bytes()


def test_se3_forms_come_from_the_basis_alone(monkeypatch):
    # the basis of the total group, handed to LieGroupSpec without its SemidirectSpec, still selects the SE(3) forms
    built = so3_r3().H
    H = liealg.LieGroupSpec("plain", built.dim, built.embed, built.basis)
    x = 0.5 * np.random.default_rng(82).standard_normal((40, H.dim))
    counts = builders.counted_generic_kernels(monkeypatch)
    elements = H.exp(x)
    assert np.array_equal(elements, built.exp(x))
    for name in ("log", "inverse", "Ad", "Ad_inv"):
        assert np.array_equal(getattr(H, name)(elements), getattr(built, name)(elements)), name
    assert counts == {"logm": 0, "expm": 0, "inv": 0}


def test_se3_log_with_flipped_translation_term_fails_se3_verify(monkeypatch, tmp_path):
    # V^-1 t = t + (c a^2 - a/2) t with the sign of a/2 flipped: every check but H's exp o log round trip passes
    original = liealg.rigid_log

    def mutant(r, t):
        a, vt, closed = original(r, t)
        return a, vt + (a @ t[..., None])[..., 0], closed

    monkeypatch.setattr(liealg, "rigid_log", mutant)
    assert cli.main(["verify", "se3-verify", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    failed = [(suite["suite"], c["name"]) for suite in report["suites"] for c in suite["checks"] if not c["pass"]]
    assert failed == [("semidirect.spec[sd:so3|r3]", "exp_log_roundtrip")]


@pytest.mark.parametrize("make", [so3_r3, lambda: SemidirectSpec(liealg.so3(), liealg.so3(), -liealg.so3().basis)],
                         ids=["so3-r3", "so3-so3"])
def test_rho_inf_is_the_finite_difference_derivative_of_rho(make):
    # column j: d/dt rho(l)(exp(t e_j)) at t = 0, by central differences of the matrices
    spec = make()
    rng = np.random.default_rng(81)
    ls = spec.K.exp(spec.K.random_algebra(rng, 0.8, (6,)))
    h = fd.GRAD_STEP
    ends = spec.N.exp(np.multiply.outer([-h, h], np.eye(spec.N.dim)))
    moved = spec.rho(ls[:, None, None], ends)
    columns = spec.N.to_coords(fd.quotient(moved[:, 0], moved[:, 1], h))
    assert np.max(np.abs(spec.rho_inf(ls) - columns.swapaxes(-1, -2))) <= 1e-9
    if spec.N.embed == 4:
        # R(l) is no translation: N's Ad, the identity of an abelian group, is not rho_inf there
        assert np.array_equal(spec.N.Ad(spec.R(ls)), np.broadcast_to(np.eye(3), (6, 3, 3)))
