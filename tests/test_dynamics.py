import csv
import warnings
from functools import partial

import numpy as np
import pytest

from gaugemech import bundle, dynamics, liealg, poisson, semidirect
from gaugemech.dynamics import DivergenceError, Trajectory, convergence_ratio, ham_vector_field, integrate, monitor_drift
from gaugemech.poisson import ChartError, PoissonSpace, ScalarField, canonical_cotangent, lie_poisson, quotient_cotangent


def free_body(inertia):
    inv_i = 1.0 / np.asarray(inertia, dtype=float)
    return ScalarField(lambda x: float(0.5 * x @ (inv_i * x)), lambda x: inv_i * x, name="kinetic")


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# H = (q p)^2 / 2 on T*R: q p is conserved and q grows like exp(q0 p0 t), so
# RK4 with a large step overflows once q**2 leaves the float range
QP_SQUARED = ScalarField(lambda x: 0.5 * (x[0] * x[1]) ** 2, lambda x: np.array([x[0] * x[1] ** 2, x[0] ** 2 * x[1]]))


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
        np.testing.assert_allclose(traj.states[-1], np.linalg.matrix_power(prop, n) @ x0, rtol=0, atol=1e-13)

    def test_divergence_aborts_with_step_index(self):
        sp = canonical_cotangent(1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            integrate(sp, QP_SQUARED, np.array([3.0, 3.0]), 0.5, 400, monitors={"H": QP_SQUARED})
        assert err.value.step >= 1
        assert err.value.trajectory.states.shape[0] == err.value.step
        assert err.value.trajectory.monitors["H"].shape[0] == err.value.step

    @pytest.mark.parametrize("x0, h", [([3.0, 3.0], 0.5), ([1.0, 1.0], 0.3), ([2.0, 0.5], 0.2)])
    def test_divergence_matches_per_step_reference(self, x0, h):
        # the reference checks every stage and every step, as a guarded stepper would;
        # the last two cases diverge past the first block of stored states
        sp = canonical_cotangent(1)

        def stage(y):
            return sp.bivector(y) @ QP_SQUARED.gradient(y) if np.isfinite(y).all() else np.full(2, np.nan)

        x, ref_states, ref_step = np.array(x0), [np.array(x0)], None
        with np.errstate(all="ignore"):
            for step in range(1, 4001):
                k1 = stage(x)
                k2 = stage(x + 0.5 * h * k1)
                k3 = stage(x + 0.5 * h * k2)
                k4 = stage(x + h * k3)
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                if not np.isfinite(x).all():
                    ref_step = step
                    break
                ref_states.append(x)
        assert ref_step is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                integrate(sp, QP_SQUARED, np.array(x0), h, 4000, monitors={"H": QP_SQUARED})
        traj = err.value.trajectory
        assert err.value.step == ref_step
        assert same_bits(traj.states, np.array(ref_states))
        assert same_bits(traj.times, np.arange(ref_step) * h)
        assert same_bits(traj.monitors["H"], [QP_SQUARED.fn(y) for y in ref_states])

    def test_rhs_error_past_divergence_is_divergence(self):
        # an rhs that rejects non-finite input (as expm does) must not mask the divergence
        def rhs(y):
            if not np.isfinite(y).all():
                raise ValueError("non-finite input")
            return y * y

        with pytest.raises(DivergenceError) as err:
            dynamics._rk4(rhs, np.array([1.0]), 0.5, 100)
        assert np.isfinite(err.value.trajectory.states).all()
        with pytest.raises(ZeroDivisionError):
            dynamics._rk4(lambda y: 1 / 0, np.array([1.0]), 0.5, 10)

    def test_rejects_x0_of_wrong_shape(self):
        sp = lie_poisson(liealg.so3())
        with pytest.raises(ChartError):
            integrate(sp, free_body([1.0, 2.0, 3.0]), np.array([0.1, 0.2]), 1e-2, 10)
        # check_chart takes stacks of points, integrate takes one
        with pytest.raises(ChartError):
            integrate(sp, free_body([1.0, 2.0, 3.0]), np.zeros((1, 3)), 1e-2, 10)

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
        np.testing.assert_allclose(traj.states[-1, 0], 0.9, atol=1e-12)
        with pytest.raises(ChartError):
            integrate(q, h_a, x0, 0.1, 6)
        with pytest.raises(ChartError):
            integrate(q, h_a, np.array([1.5, 0.0, 0.1, 0.2, 0.3]), 0.1, 1)

    def test_rejects_nonpositive_step(self):
        sp = canonical_cotangent(1)
        with pytest.raises(ValueError):
            integrate(sp, free_body([1.0, 1.0]), np.zeros(2), -0.1, 10)


class TestFastPaths:
    def test_ham_vector_field_matches_bivector_times_gradient(self):
        rng = np.random.default_rng(11)
        top = semidirect.heavy_top_model([1.0, 2.0, 3.0], 0.7, [0.3, -0.2, 0.9])
        so3 = lie_poisson(liealg.so3())
        fd_kinetic = ScalarField(free_body([1.0, 2.0, 3.0]).fn)  # no exact gradient: the FD fallback
        cases = [(top.space, top.hamiltonian, 6), (so3, fd_kinetic, 3), (canonical_cotangent(1), QP_SQUARED, 2)]
        for space, ham, dim in cases:
            for _ in range(50):
                x = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
                assert same_bits(ham_vector_field(space, ham, x), space.bivector(x) @ ham.gradient(x))

    @pytest.mark.parametrize("mgl, axis", [(0.7, [0.3, 0.0, 0.9]), (-0.7, [0.0, -0.0, 1.0]), (0.0, [0.0, 0.0, 1.0])])
    def test_heavy_top_gradient_matches_blockwise_formula(self, mgl, axis):
        # signed zeros included: dH/dGamma = mgl * axis may hold -0.0
        inertia, axis = np.array([1.0, 2.0, 3.0]), np.array(axis)
        grad = semidirect.heavy_top_model(inertia, mgl, axis).hamiltonian.grad
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.standard_normal(6)
            x[rng.integers(6)] = -0.0
            assert same_bits(grad(x), np.concatenate([(1.0 / inertia) * x[:3], mgl * axis]))

    @pytest.mark.parametrize("name", ["heavy-top-lagrange", "heavy-top-free"])
    def test_builtin_monitors_batched_equal_per_row(self, name):
        from gaugemech.cli import BUILTIN_SCENARIOS

        cfg = BUILTIN_SCENARIOS[name]["simulate"]
        m = semidirect.heavy_top_model(cfg["inertia"], cfg["mgl"], cfg["axis"])
        monitors = m.monitors()
        assert {"energy", "|Gamma|^2", "<Pi,Gamma>"} <= set(monitors)
        assert ("Pi3" in monitors) == (name == "heavy-top-lagrange")
        assert ("|Pi|^2" in monitors) == (name == "heavy-top-free")
        states = integrate(m.space, m.hamiltonian, np.array(cfg["x0"]), cfg["h"], cfg["n_steps"]).states
        assert states.shape == (10001, 6)
        for q in monitors.values():
            assert q.batch_fn is not None
            assert same_bits(q.batch_fn(states), [q.fn(y) for y in states])

    @pytest.mark.parametrize("group", [liealg.so3(), liealg.heisenberg3(), semidirect.so3_r3().group_spec()], ids=lambda g: g.name)
    def test_casimirs_batched_equal_per_row(self, group):
        fields = poisson.casimir_fields(group)
        assert fields
        rows = np.random.default_rng(13).standard_normal((200, group.dim)) * 10.0 ** np.random.default_rng(14).uniform(-3, 3, (200, 1))
        for c in fields:
            assert c.batch_fn is not None
            assert same_bits(c.batch_fn(rows), [c.fn(y) for y in rows]), c.name


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
        assert np.linalg.norm(mu_up - traj.states[-1]) <= 1e-6


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
