import csv
from functools import partial

import numpy as np
import pytest

from gaugemech import bundle, dynamics, liealg, poisson, semidirect
from gaugemech.dynamics import DivergenceError, Trajectory, convergence_ratio, ham_vector_field, integrate, monitor_drift
from gaugemech.poisson import ChartError, PoissonSpace, ScalarField, canonical_cotangent, lie_poisson, quotient_cotangent


def free_body(inertia):
    inv_i = 1.0 / np.asarray(inertia, dtype=float)
    return ScalarField(lambda x: float(0.5 * x @ (inv_i * x)), lambda x: inv_i * x, name="kinetic")


class TestVectorField:
    def test_constant_hamiltonian_gives_zero_field(self):
        sp = lie_poisson(liealg.so3())
        h = ScalarField(lambda x: 2.0, lambda x: np.zeros(3))
        assert np.linalg.norm(ham_vector_field(sp, h, np.array([1.0, 2.0, 3.0]))) == 0.0

    def test_canonical_free_particle(self):
        sp = canonical_cotangent(1)
        h = ScalarField(lambda x: 0.5 * x[1] ** 2, lambda x: np.array([0.0, x[1]]))
        v = ham_vector_field(sp, h, np.array([0.3, 0.8]))
        np.testing.assert_allclose(v, [0.8, 0.0], atol=1e-14)

    def test_so3_euler_field_oracle(self):
        # with {f,g}(mu) = <mu, [grad f, grad g]> and v = {x, H}: mu' = Omega x mu
        sp = lie_poisson(liealg.so3())
        inertia = np.array([1.0, 2.0, 3.0])
        h = free_body(inertia)
        rng = np.random.default_rng(1)
        for _ in range(10):
            mu = rng.standard_normal(3)
            omega = mu / inertia
            np.testing.assert_allclose(ham_vector_field(sp, h, mu), np.cross(omega, mu), atol=1e-13)


class TestIntegrate:
    def test_zero_field_constant_trajectory(self):
        sp = lie_poisson(liealg.so3())
        h = ScalarField(lambda x: 1.0, lambda x: np.zeros(3))
        traj = integrate(sp, h, np.array([0.1, 0.2, 0.3]), 1e-2, 50)
        assert np.max(np.abs(traj.states - traj.states[0])) == 0.0

    def test_free_rigid_body_casimir_drift(self):
        sp = lie_poisson(liealg.so3())
        h = free_body([1.0, 2.0, 3.0])
        cas = ScalarField(lambda x: float(x @ x), lambda x: 2 * x, name="|Pi|^2")
        traj = integrate(sp, h, np.array([1.0, 0.2, -0.4]), 1e-3, 10000, monitors={"c": cas})
        assert monitor_drift(traj)["c"] <= 1e-8

    def test_fourth_order_convergence(self):
        sp = lie_poisson(liealg.so3())
        h = free_body([1.0, 2.0, 3.0])
        ratio, d1, d2 = convergence_ratio(sp, h, np.array([1.0, 0.7, -0.3]), h=2e-2, t_final=5.0, quantity=h)
        assert 12.0 <= ratio <= 20.0, (ratio, d1, d2)

    def test_linear_field_matches_rk4_propagator(self):
        # x' = A x with A = J S for H = x^T S x / 2: n RK4 steps apply P^n exactly
        sp = canonical_cotangent(2)
        rng = np.random.default_rng(3)
        s = rng.standard_normal((4, 4))
        s = s + s.T
        h_fn = ScalarField(lambda x: float(0.5 * x @ s @ x), lambda x: s @ x)
        x0, h, n = rng.standard_normal(4), 0.02, 50
        ha = h * (sp.bivector(x0) @ s)
        prop = np.eye(4) + ha + ha @ ha / 2 + ha @ ha @ ha / 6 + ha @ ha @ ha @ ha / 24
        traj = integrate(sp, h_fn, x0, h, n)
        np.testing.assert_allclose(traj.final, np.linalg.matrix_power(prop, n) @ x0, rtol=0, atol=1e-13)

    def test_divergence_aborts_with_step_index(self):
        sp = canonical_cotangent(1)
        # H = (q p)^2 / 2 has superexponential flow; large steps overflow fast
        h = ScalarField(lambda x: 0.5 * (x[0] * x[1]) ** 2,
                        lambda x: np.array([x[0] * x[1] ** 2, x[0] ** 2 * x[1]]))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            integrate(sp, h, np.array([3.0, 3.0]), 0.5, 400, monitors={"H": h})
        assert err.value.step >= 1
        assert err.value.trajectory.states.shape[0] == err.value.step
        assert err.value.trajectory.monitors["H"].shape[0] == err.value.step

    def test_rejects_x0_of_wrong_shape(self):
        sp = lie_poisson(liealg.so3())
        with pytest.raises(ChartError):
            integrate(sp, free_body([1.0, 2.0, 3.0]), np.array([0.1, 0.2]), 1e-2, 10)

    def test_unboxed_space_checks_chart_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(PoissonSpace, "check_chart", lambda self, x: calls.append(x))
        integrate(lie_poisson(liealg.so3()), free_body([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]), 1e-2, 50)
        assert len(calls) == 1

    def test_boxed_space_rejects_state_leaving_the_box(self):
        # H = a on T*P/G over the base [-1, 1]: m' = 1, so m = 0.5 + t leaves the box after t = 0.5
        b = bundle.BundleSpec("TrivialProduct", liealg.so3(), bundle.ConnectionData.flat(1, 3), base_box=[[-1.0, 1.0]])
        q = quotient_cotangent(b)
        h_a = ScalarField(lambda x: float(x[1]), lambda x: np.eye(5)[1], name="a")
        x0 = np.array([0.5, 0.0, 0.1, 0.2, 0.3])
        traj = integrate(q, h_a, x0, 0.1, 4)
        np.testing.assert_allclose(traj.final[0], 0.9, atol=1e-12)
        with pytest.raises(ChartError):
            integrate(q, h_a, x0, 0.1, 6)
        with pytest.raises(ChartError):
            integrate(q, h_a, np.array([1.5, 0.0, 0.1, 0.2, 0.3]), 0.1, 1)

    def test_rejects_nonpositive_step(self):
        sp = canonical_cotangent(1)
        with pytest.raises(ValueError):
            integrate(sp, free_body([1.0, 1.0]), np.zeros(2), -0.1, 10)


class TestMonitors:
    def test_constant_quantity_zero_drift(self):
        sp = lie_poisson(liealg.so3())
        h = free_body([1.0, 2.0, 3.0])
        traj = integrate(sp, h, np.array([0.5, 0.1, 0.2]), 1e-2, 100)
        drift = monitor_drift(traj, {"const": ScalarField(lambda x: 42.0)})
        assert drift["const"] == 0.0

    def test_heavy_top_monitors(self):
        m = semidirect.heavy_top_model([1.0, 1.0, 0.5], 1.0, [0.0, 0.0, 1.0])
        x0 = np.array([0.8, -0.3, 0.6, 0.2, 0.1, 0.9])
        monitors = {"energy": m.hamiltonian}
        for c in m.casimirs:
            monitors[c.name] = c
        traj = integrate(m.space, m.hamiltonian, x0, 1e-3, 10000, monitors=monitors)
        drift = monitor_drift(traj)
        assert drift["<Pi,Gamma>"] <= 1e-6
        assert drift["energy"] <= 1e-6


class TestReductionConsistency:
    def test_upstairs_flow_matches_quotient_bracket_flow(self):
        # integrate on T*G, reduce pointwise, compare against the faithful
        # quotient-bracket integration downstairs (T = 1)
        g = liealg.so3()
        b = bundle.BundleSpec("TrivialProduct", g, bundle.ConnectionData.flat(0, 3), base_box=np.zeros((0, 2)))
        q = quotient_cotangent(b)
        h_red = free_body([1.0, 2.0, 3.0])
        mu0 = np.array([0.9, -0.4, 0.3])
        us, bs = dynamics.integrate_cotangent(g, partial(dynamics.group_cotangent_field, g, h_red), g.identity(), mu0, 1e-2, 100)
        traj = integrate(q, h_red, mu0, 1e-2, 100)
        for idx in (25, 50, 100):
            mu_up = g.Ad_star(np.linalg.inv(us[idx])) @ bs[idx]
            assert np.linalg.norm(mu_up - traj.states[idx]) <= 1e-6

    def test_upstairs_flow_matches_lie_poisson_heavy_top(self):
        m = semidirect.heavy_top_model([1.0, 2.0, 3.0], 1.0, [0.0, 0.0, 1.0])
        grp = m.sd.group_spec()
        x0 = np.array([0.8, -0.3, 0.6, 0.2, 0.1, 0.9])
        us, bs = dynamics.integrate_cotangent(grp, partial(dynamics.group_cotangent_field, grp, m.hamiltonian), grp.identity(), x0, 1e-3, 1000)
        traj = integrate(m.space, m.hamiltonian, x0, 1e-3, 1000)
        mu_up = grp.Ad_star(np.linalg.inv(us[-1])) @ bs[-1]
        assert np.linalg.norm(mu_up - traj.final) <= 1e-6


class TestOutput:
    def test_csv_and_metadata(self, tmp_path):
        sp = lie_poisson(liealg.so3())
        h = free_body([1.0, 2.0, 3.0])
        traj = integrate(sp, h, np.array([0.5, 0.1, 0.2]), 1e-2, 10, monitors={"energy": h})
        csv_path = tmp_path / "traj.csv"
        dynamics.write_trajectory_csv(traj, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "time,x1,x2,x3,energy"
        assert len(lines) == 12
        meta = tmp_path / "traj.meta.json"
        dynamics.write_run_metadata(meta, sp.name, "kinetic", 1e-2, 10, seed=7)
        assert meta.exists()

    def test_csv_matches_csv_writer_bytes(self, tmp_path):
        # the block writer must reproduce csv.writer with f"{v:.17g}" cells byte for byte,
        # across a block boundary and with a quoted monitor name
        rows = dynamics.CSV_BLOCK + 77
        rng = np.random.default_rng(5)
        states = rng.standard_normal((rows, 3)) * 10.0 ** rng.uniform(-300, 300, (rows, 3))
        states[0] = [-0.0, 1e-300, 1e300]
        states[dynamics.CSV_BLOCK] = [1e300, -0.0, 1e-300]
        traj = Trajectory(np.arange(rows) * 1e-3, states,
                          {"<Pi,Gamma>": rng.standard_normal(rows), "energy": np.full(rows, -0.0)})
        expected = tmp_path / "expected.csv"
        with expected.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "x1", "x2", "x3", "<Pi,Gamma>", "energy"])
            for idx in range(rows):
                row = [f"{traj.times[idx]:.17g}"] + [f"{v:.17g}" for v in traj.states[idx]]
                writer.writerow(row + [f"{traj.monitors[m][idx]:.17g}" for m in ("<Pi,Gamma>", "energy")])
        got = tmp_path / "got.csv"
        dynamics.write_trajectory_csv(traj, got)
        assert got.read_bytes() == expected.read_bytes()
        assert got.read_bytes().startswith(b'time,x1,x2,x3,"<Pi,Gamma>",energy\r\n0,-0,1e-300,')
