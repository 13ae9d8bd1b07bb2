"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import time
from functools import partial

import numpy as np
import pytest

from gaugemech import bundle, cli, dynamics, groupoid, liealg, poisson, semidirect
from gaugemech.bundle import BoxBase, BundleSpec, ConnectionData, CotangentSample

import builders
import cotangent_flow

SEED = 20260810


def _line(num: int, passed: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, text


def _tols(rep) -> dict[str, float]:
    """The tolerance each residual check of a report carries, by name (flags, at 0.5, left out).

    Each criterion pins these, so loosening a suite's tolerance fails its test.
    """
    return {c.name: c.tol for c in rep.checks if not c.flag}


@pytest.fixture(scope="module")
def so3_bundle():
    g = liealg.so3()
    conn = builders.connection_from_matrix(np.array([[0.3, -0.1], [0.0, 0.2], [0.1, 0.4]]))
    return BundleSpec(g, conn, BoxBase([[-1.0, 1.0], [-1.0, 1.0]]))


@pytest.fixture(scope="module")
def u1_bundle():
    t1 = liealg.torus(1)
    terms = [[[(-0.5, (0, 1))]], [[(0.5, (1, 0))]]]
    return BundleSpec(t1, ConnectionData(2, 1, terms), BoxBase([[-1.0, 1.0], [-1.0, 1.0]]))


@pytest.fixture(scope="module")
def sd():
    return semidirect.so3_r3()


def test_criterion_1_vb_axioms(so3_bundle):
    t0 = time.perf_counter()
    rep = groupoid.vb_axiom_suite(so3_bundle, "T(PxP)", seed=SEED)
    elapsed = time.perf_counter() - t0
    assert _tols(rep) == dict.fromkeys(["identity_additive", "interchange", "inverse_additive", "neg_product", "zero_inverse", "zero_multiplicative"], 1e-11)
    ok = rep.passed and rep.max_residual <= 1e-11 and elapsed < 10.0
    _line(1, ok, f"interchange + side identities on the {rep.extras['basis_rows']}-row fibre basis, max residual {rep.max_residual:.2e}, {elapsed:.2f}s")


def test_criterion_2_duality_well_definedness(so3_bundle):
    rep = groupoid.dual_structure_suite(so3_bundle, seed=SEED)
    matches = ["compose_matches", "identity_matches", "side_dual_embedding", "source_matches", "target_matches", "zero_covector_sides"]
    assert _tols(rep) == {"factorization_independence": 1e-11} | dict.fromkeys(matches, 1e-10)
    fact = next(c for c in rep.checks if c.name == "factorization_independence")
    match = max(c.residual for c in rep.checks if c.name.endswith("matches"))
    ok = rep.passed and fact.residual <= 1e-11 and match <= 1e-10
    _line(2, ok, f"factorization independence {fact.residual:.2e} (every basis middle against every basis row), structure match {match:.2e}")


def test_criterion_3_core_dimensions(so3_bundle):
    rep = groupoid.core_suite(so3_bundle, fibers=50, seed=SEED)
    # the dimensions computed on every fiber, not the expected table the suite carries
    got = {c.name[len("core_dim[") : -1]: c.info["got"] for c in rep.checks if c.name.startswith("core_dim[")}
    expected = {"T(PxP)": so3_bundle.tangent_dim, "PxgxP": 0, "quot(TPxTP)": so3_bundle.tangent_dim}
    dims = {k: got[k][0] for k in expected}
    ok = rep.passed and all(got[k] == [v] for k, v in expected.items())
    _line(3, ok, f"core dims (dim P, 0, dim P) = ({dims['T(PxP)']}, {dims['PxgxP']}, {dims['quot(TPxTP)']}) on 50 fibers")


def test_criterion_4_momentum_equivariance(so3_bundle, sd):
    from gaugemech.rng import stream

    rng = stream(SEED, "acceptance.equivariance")
    worst_j = max(
        so3_bundle.equivariance_residual(so3_bundle.random_cotangents(rng, ()), so3_bundle.group.exp(so3_bundle.group.random_algebra(rng)))
        for _ in range(200)
    )
    total = semidirect.total_bundle(sd)
    worst_j_sd = max(
        total.equivariance_residual(total.random_cotangents(rng, ()), total.group.exp(total.group.random_algebra(rng)))
        for _ in range(200)
    )
    rep = semidirect.equivariance_suite(sd, samples=200, seed=SEED)
    assert _tols(rep) == {"momentum_equivariance": 1e-9, "transport_anti_homomorphism": 1e-9}
    worst_sigma = next(c.residual for c in rep.checks if c.name == "momentum_equivariance")
    ok = worst_j <= 1e-9 and worst_j_sd <= 1e-9 and worst_sigma <= 1e-9
    _line(4, ok, f"J equivariance {worst_j:.2e} / {worst_j_sd:.2e} (SO(3), SO(3)x|R3 bundles), factored momentum {worst_sigma:.2e} (200 samples each)")


def test_criterion_5_dual_pair_polarity(so3_bundle):
    rep = poisson.dual_pair_check(so3_bundle, trials=100, seed=SEED)
    assert _tols(rep) == {"polarity": 1e-7, "casimir_commutes": 1e-7, "quotient_matches_lift": 1e-9}
    ok = rep.passed and rep.max_residual <= 1e-7
    _line(5, ok, f"{{f o pi_G, h o J}} residual {rep.max_residual:.2e} over 100 function pairs")


def test_criterion_6_exactness(so3_bundle):
    # each sequence once, in the suite that owns its maps: Adual (a*, iota*) in bundle.dual_sequence,
    # duzyVtrojka and duzyVdual in groupoid.ses, and the commutation pair of the quotiented duals
    exact = {"composite_zero": 1e-10, "image_equals_kernel": 1e-10}
    reports = {
        "Adual": (bundle.dual_sequence_suite(so3_bundle, samples=50, seed=SEED), exact | {"composite_zero": 1e-11, "iota_after_sigma_identity": 1e-11}),
        "duzyVtrojka": (groupoid.ses_fiber_check(so3_bundle, "duzyVtrojka", samples=50, seed=SEED), exact),
        "duzyVdual": (groupoid.ses_fiber_check(so3_bundle, "duzyVdual", samples=50, seed=SEED), exact | {"i2_star_duality": 1e-10}),
        "quotiented": (groupoid.quotient_dual_suite(so3_bundle, samples=50, seed=SEED), {"contragredient_pairing": 1e-12, "quotient_dual_iso_residual": 1e-10}),
    }
    residuals = {}
    ok = True
    for sid, (rep, tols) in reports.items():
        assert _tols(rep) == tols
        residuals[sid] = rep.max_residual
        ok = ok and rep.passed
    pairing = next(c for c in reports["quotiented"][0].checks if c.name == "contragredient_pairing")
    ok = ok and pairing.residual <= 1e-12
    residuals["pairing"] = pairing.residual
    _line(6, ok, "fiberwise exactness on 50 fibers each, residuals " + ", ".join(f"{k}={v:.1e}" for k, v in residuals.items()))


def test_criterion_7_leaf_structure(so3_bundle):
    from gaugemech.rng import stream

    rng = stream(SEED, "acceptance.leaves")
    ok = True
    # orbit dimension 2 for generic so3* points
    for _ in range(5):
        mu0 = rng.standard_normal(3)
        ok = ok and poisson.coadjoint_orbit(so3_bundle.group, mu0, seed=SEED).dim == 2
    orbit = poisson.coadjoint_orbit(so3_bundle.group, np.array([0.0, 0.0, 1.0]), seed=SEED)
    rep = poisson.leaf_structure(so3_bundle, orbit, samples=20, seed=SEED)
    assert _tols(rep) == {"affine_transitivity": 1e-10, "pi_sigma_well_defined": 1e-9, "pi_sigma_surjective": 1e-11}
    aff = next(c.residual for c in rep.checks if c.name == "affine_transitivity")
    ok = ok and rep.passed and rep.extras["leaf_dim"] == 2 * so3_bundle.d + orbit.dim and aff <= 1e-10
    # zero-orbit leaf: the dual anchor pulls the canonical form back (<= 1e-9)
    pull = bundle.anchor_pullback_suite(so3_bundle, samples=40, seed=SEED)
    assert _tols(pull) == {"pullback_matches_canonical": 1e-9}
    ok = ok and pull.passed and pull.max_residual <= 1e-9
    _line(7, ok, f"orbit dim 2, leaf dim {rep.extras['leaf_dim']}, affine transitivity {aff:.2e}, zero-orbit pullback {pull.max_residual:.2e}")


def test_criterion_8_magnetic_term(u1_bundle):
    t1 = u1_bundle.group
    flat = BundleSpec(t1, ConnectionData.flat(2, 1), BoxBase([[-1.0, 1.0], [-1.0, 1.0]]))
    tf_flat, rep_flat = poisson.magnetic_term(flat, np.array([1.0]), samples=8, seed=SEED)
    flat_worst = rep_flat.max_residual
    two_form, rep = poisson.magnetic_term(u1_bundle, np.array([1.0]), samples=12, seed=SEED)
    m, rho = np.array([0.3, -0.2]), np.array([0.1, 0.7])
    ex, ey = np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])
    dxdy = abs(two_form(m, rho, ex, ey) - 1.0)
    closed = next(c.residual for c in rep.checks if c.name == "closed")
    ok = flat_worst <= 1e-9 and dxdy <= 1e-7 and closed <= 1e-6 and rep.passed
    _line(8, ok, f"flat term {flat_worst:.2e}, U(1) dx^dy match {dxdy:.2e}, closedness {closed:.2e}")


def test_criterion_9_heavy_top():
    t0 = time.perf_counter()
    model = semidirect.heavy_top_model([1.0, 1.0, 0.5], 1.0, [0.0, 0.0, 1.0])
    x0 = np.array([0.8, -0.3, 0.6, 0.2, 0.1, 0.9])
    monitors = {c.name: c for c in model.casimirs}
    traj = dynamics.integrate(model.space, model.hamiltonian, x0, 1e-3, 10000, monitors=monitors)
    drift = dynamics.monitor_drift(traj)
    casimir_ok = drift["|Gamma|^2"] <= 1e-6 and drift["<Pi,Gamma>"] <= 1e-6

    ratio, d1, d2 = dynamics.convergence_ratio(model.space, model.hamiltonian, x0, h=8e-3, t_final=4.0, quantity=model.hamiltonian)
    ratio_ok = 12.0 <= ratio <= 20.0

    grp = semidirect.so3_r3().H
    us, bs = cotangent_flow.integrate_cotangent(grp, partial(cotangent_flow.group_cotangent_field, grp, model.hamiltonian), grp.identity(), x0, 1e-3, 1000)
    mu_up = grp.Ad_star(np.linalg.inv(us[-1])) @ bs[-1]
    reduced = dynamics.integrate(model.space, model.hamiltonian, x0, 1e-3, 1000)
    agree = float(np.linalg.norm(mu_up - reduced.states[-1]))
    elapsed = time.perf_counter() - t0
    ok = casimir_ok and ratio_ok and agree <= 1e-6 and elapsed < 30.0
    _line(9, ok, f"Casimir drifts ({drift['|Gamma|^2']:.1e}, {drift['<Pi,Gamma>']:.1e}) at T=10 h=1e-3, RK4 ratio {ratio:.1f}, upstairs-vs-reduced {agree:.1e}, {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli.main(["verify", "heisenberg-verify", "--out", str(out)])
        assert code == cli.EXIT_PASS
        outs.append((out / "report.json").read_bytes())
    sim = []
    for sub in ("c", "d"):
        out = tmp_path / sub
        code = cli.main(["simulate", "heavy-top-free", "--out", str(out)])
        assert code == cli.EXIT_PASS
        sim.append((out / "report.json").read_bytes() + (out / "trajectory.csv").read_bytes())
    ok = outs[0] == outs[1] and sim[0] == sim[1]
    _line(10, ok, "repeated runs with a fixed seed produce byte-identical reports")
