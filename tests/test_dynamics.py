import csv
import operator
import warnings
from functools import partial, reduce

import numpy as np
import pytest

from gaugemech import bundle, codegen, dynamics, liealg, poisson, semidirect
from gaugemech.dynamics import DivergenceError, Trajectory, convergence_ratio, ham_vector_field, integrate, monitor_drift
from gaugemech.poisson import ChartError, PoissonSpace, ScalarField, canonical_cotangent, lie_poisson, quotient_cotangent

import cotangent_flow


def free_body(inertia):
    inv_i = 1.0 / np.asarray(inertia, dtype=float)
    return ScalarField(lambda x: np.vecdot(0.5 * x, inv_i * x), lambda x: inv_i * x, name="kinetic")


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# H = (q p)^2 / 2 on T*R: q p is conserved and q grows like exp(q0 p0 t), so
# RK4 with a large step overflows once q**2 leaves the float range. The value squares with
# np.square, not ** 2: a numpy scalar's ** 2 (one point) can round unlike an array's (a stack)
QP_SQUARED = ScalarField(lambda x: 0.5 * np.square(x[..., 0] * x[..., 1]),
                         lambda x: np.stack([x[..., 0] * np.square(x[..., 1]), np.square(x[..., 0]) * x[..., 1]], axis=-1))


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
        cas = ScalarField(lambda x: np.vecdot(x, x), lambda x: 2 * x, name="|Pi|^2")
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

    @pytest.mark.parametrize("x0, h", [([3.0, 3.0], 0.5), ([1.0, 1.0], 0.3), ([2.0, 0.5], 0.2), ([4e87, 2.5e-88], 0.3)])
    def test_divergence_matches_per_step_reference(self, x0, h):
        # the reference checks every stage and every step, as a guarded stepper would;
        # the last three cases diverge past the first block of stored states, the last at
        # step 513, the first row of the second block
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
        # a field that rejects non-finite input (as expm does) must not mask the divergence:
        # H = (q p)^2 / 2 without affine data, so the compiled field calls this gradient per stage
        def gradient(x):
            if not np.isfinite(x).all():
                raise ValueError("non-finite input")
            return QP_SQUARED.gradient(np.asarray(x))

        ham = ScalarField(QP_SQUARED.fn, gradient)
        with pytest.raises(DivergenceError) as err:
            integrate(canonical_cotangent(1), ham, np.array([3.0, 3.0]), 0.5, 400)
        assert np.isfinite(err.value.trajectory.states).all()
        assert err.value.trajectory.states.shape[0] == err.value.step
        # a field that raises on a finite state is not a divergence
        with pytest.raises(ZeroDivisionError):
            integrate(canonical_cotangent(1), ScalarField(QP_SQUARED.fn, lambda x: 1 / 0), np.array([1.0, 1.0]), 0.5, 10)

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
        b = bundle.BundleSpec(liealg.so3(), bundle.ConnectionData.flat(1, 3), bundle.BoxBase([[-1.0, 1.0]]))
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


def reference_field(space, ham, y):
    """v = B(y) grad H(y) in plain Python floats, in the documented order.

    v_i sums B_ij g_j in ascending j, and B_ij = sum_k c_ijk y_k in ascending k
    plus const_ij. With affine data g_j = sum_l A_jl y_l in ascending l plus
    f_j, and a g_j that vanishes for every y is left out; without, g is
    ham.gradient(y). Each sum runs left to right over its nonzero terms.
    """
    def total(terms):
        return reduce(operator.add, terms)

    n = len(y)
    c = space.linear.tolist()
    const = space.const.tolist()
    if ham.affine is None:
        g = ham.gradient(np.array(y)).tolist()
    else:
        a, f = (m.tolist() for m in ham.affine)
        g = [total([a[j][l] * y[l] for l in range(n) if a[j][l] != 0] + [f[j]] * (f[j] != 0)) if any(a[j]) or f[j] != 0 else None
             for j in range(n)]
    v = []
    for i in range(n):
        terms = []
        for j in range(n):
            b = [c[i][j][k] * y[k] for k in range(n) if c[i][j][k] != 0] + [const[i][j]] * (const[i][j] != 0)
            if b and g[j] is not None:
                terms.append(total(b) * g[j])
        v.append(total(terms) if terms else 0.0)
    return v


def reference_step(space, ham, x, h):
    """One classical RK4 step over reference_field in plain Python floats: stages at x + half*k
    and x + h*k, then x + sixth*(k1 + 2*k2 + 2*k3 + k4), each left to right."""
    half, sixth = 0.5 * h, h / 6.0
    k1 = reference_field(space, ham, x)
    k2 = reference_field(space, ham, [a + half * b for a, b in zip(x, k1)])
    k3 = reference_field(space, ham, [a + half * b for a, b in zip(x, k2)])
    k4 = reference_field(space, ham, [a + h * b for a, b in zip(x, k3)])
    return [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def compiled_cases():
    """(name, space, affine Hamiltonian) for every compiled-field test."""
    from gaugemech.cli import BUILTIN_SCENARIOS

    out = []
    for name in ("heavy-top-lagrange", "heavy-top-free"):
        cfg = BUILTIN_SCENARIOS[name]["simulate"]
        top = semidirect.heavy_top_model(cfg["inertia"], cfg["mgl"], cfg["axis"])
        out.append((name, top.space, top.hamiltonian))
    top = semidirect.heavy_top_model([1.0, 2.0, 3.0], 0.7, [0.3, -0.2, 0.9])
    out.append(("general-axis-top", top.space, top.hamiltonian))
    inv_i = 1.0 / np.array([1.0, 2.0, 3.0])
    out.append(("so3-free-body", lie_poisson(liealg.so3()), ScalarField(free_body([1.0, 2.0, 3.0]).fn, affine=(np.diag(inv_i), np.zeros(3)))))
    # H = q^2 + p^2 / 4 + 0.3 q on T*R
    oscillator = ScalarField(lambda x: float(x[0] ** 2 + x[1] ** 2 / 4 + 0.3 * x[0]), affine=(np.diag([2.0, 0.5]), np.array([0.3, 0.0])))
    out.append(("T*R1-oscillator", canonical_cotangent(1), oscillator))
    return out


COMPILED = compiled_cases()
# no exact gradient: the FD fallback, in numpy, then the compiled sum
FD_KINETIC = ("so3-fd-kinetic", lie_poisson(liealg.so3()), ScalarField(free_body([1.0, 2.0, 3.0]).fn))


class TestFastPaths:
    def test_ham_vector_field_matches_bivector_times_gradient(self):
        # the numpy reference is bivector(x) @ gradient(x) at a point, and on a stack each row has
        # the bits of its one-point call, signed zeros included
        rng = np.random.default_rng(11)
        for name, space, ham in COMPILED + [FD_KINETIC]:
            rows = rng.standard_normal((50, space.dim)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
            rows[::2, 0] = -0.0
            single = np.array([ham_vector_field(space, ham, x) for x in rows])
            for x, v in zip(rows, single):
                assert same_bits(v, space.bivector(x) @ ham.gradient(x)), name
            for stack in (rows, rows.reshape(5, 10, space.dim)):
                assert same_bits(ham_vector_field(space, ham, stack).reshape(-1, space.dim), single), name

    @pytest.mark.parametrize("name, space, ham", COMPILED + [FD_KINETIC], ids=[c[0] for c in COMPILED + [FD_KINETIC]])
    def test_compiled_step_matches_plain_python_rk4(self, name, space, ham):
        rng = np.random.default_rng(17)
        step = codegen.compile_step(space, ham)

        def draw(trial, exponent):
            x = (rng.standard_normal(space.dim) * 10.0 ** exponent).tolist()
            if trial % 2:
                x[rng.integers(space.dim)] = -0.0  # signed zeros included
            return x, 10.0 ** rng.uniform(-4, -3)

        for trial in range(100):
            x, h = draw(trial, rng.uniform(-3, 3))
            rows = step(x, h, 0.5 * h, h / 6.0, 1)
            assert type(rows) is list and len(rows) == 1
            assert type(rows[0]) is tuple and all(type(e) is float for e in rows[0])
            assert same_bits(rows[0], reference_step(space, ham, x, h)), name
        for trial, exponent in enumerate([-3, -1, 1, 3]):  # 100 steps, one step per call and through integrate
            x, h = draw(trial, exponent)
            ref, y = [x], x
            for _ in range(100):
                ref.append(reference_step(space, ham, ref[-1], h))
                (y,) = step(y, h, 0.5 * h, h / 6.0, 1)
            assert np.isfinite(ref).all()
            assert same_bits(y, ref[-1]), name
            assert same_bits(integrate(space, ham, np.array(x), h, 100).states, ref), name
        # integrate runs CSV_BLOCK steps per call of the step: run counts at and around the block edges
        x, h = draw(0, -1)
        ref = [x]
        for _ in range(1025):
            ref.append(reference_step(space, ham, ref[-1], h))
        assert np.isfinite(ref).all()
        for n_steps in (1, dynamics.CSV_BLOCK - 1, dynamics.CSV_BLOCK, dynamics.CSV_BLOCK + 1, 2 * dynamics.CSV_BLOCK + 1):
            assert same_bits(integrate(space, ham, np.array(x), h, n_steps).states, ref[: n_steps + 1]), (name, n_steps)

    @pytest.mark.parametrize("name", ["heavy-top-lagrange", "heavy-top-free"])
    def test_step_on_columns_equals_single_runs(self, name):
        # the compiled step on 64 numpy columns: an ensemble whose members keep the bits of their own runs
        from gaugemech.cli import BUILTIN_SCENARIOS

        cfg = BUILTIN_SCENARIOS[name]["simulate"]
        m = semidirect.heavy_top_model(cfg["inertia"], cfg["mgl"], cfg["axis"])
        x0s = np.array(cfg["x0"]) * np.random.default_rng(18).uniform(0.95, 1.05, (64, 6))
        step, h = codegen.compile_step(m.space, m.hamiltonian), cfg["h"]
        rows = step(list(x0s.T), h, 0.5 * h, h / 6.0, 1000)
        assert len(rows) == 1000 and all(len(row) == 6 and all(c.shape == (64,) for c in row) for row in rows)
        states = np.concatenate([x0s.T[None], np.array(rows)])  # (step, coordinate, member)
        for member, x0 in enumerate(x0s):
            assert same_bits(states[:, :, member], integrate(m.space, m.hamiltonian, x0, h, 1000).states), member

    @pytest.mark.parametrize("name, space, ham", COMPILED + [FD_KINETIC], ids=[c[0] for c in COMPILED + [FD_KINETIC]])
    def test_compiled_field_within_ulps_of_numpy(self, name, space, ham):
        # the rows of the compiled step (reference_field, which test_compiled_step_matches_plain_python_rk4
        # pins bit for bit) against the numpy reference: two summation orders of the same terms differ
        # by a few ulps of the sum of their magnitudes
        rng = np.random.default_rng(16)
        for _ in range(200):
            x = rng.standard_normal(space.dim) * 10.0 ** rng.uniform(-3, 3)
            b, g = space.bivector(x), ham.gradient(x)
            v = np.array(reference_field(space, ham, x.tolist()))
            assert np.all(np.abs(v - ham_vector_field(space, ham, x)) <= 4 * np.spacing(np.abs(b) @ np.abs(g))), name

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
            assert same_bits(q(states), [q(y) for y in states])

    @pytest.mark.parametrize("group", [liealg.so3(), liealg.heisenberg3(), semidirect.so3_r3().H], ids=lambda g: g.name)
    def test_casimirs_batched_equal_per_row(self, group):
        fields = poisson.casimir_fields(group)
        assert fields
        rows = np.random.default_rng(13).standard_normal((200, group.dim)) * 10.0 ** np.random.default_rng(14).uniform(-3, 3, (200, 1))
        for c in fields:
            assert same_bits(c(rows), [c(y) for y in rows]), c.name


class TestMonitors:
    def test_constant_quantity_zero_drift(self):
        sp = lie_poisson(liealg.so3())
        h = free_body([1.0, 2.0, 3.0])
        traj = integrate(sp, h, np.array([0.5, 0.1, 0.2]), 1e-2, 100, monitors={"const": ScalarField(lambda x: np.full(x.shape[:-1], 42.0))})
        drift = monitor_drift(traj)
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
        b = bundle.BundleSpec(g, bundle.ConnectionData.flat(0, 3), bundle.BoxBase(np.zeros((0, 2))))
        q = quotient_cotangent(b)
        h_red = free_body([1.0, 2.0, 3.0])
        mu0 = np.array([0.9, -0.4, 0.3])
        us, bs = cotangent_flow.integrate_cotangent(g, partial(cotangent_flow.group_cotangent_field, g, h_red), g.identity(), mu0, 1e-2, 100)
        traj = integrate(q, h_red, mu0, 1e-2, 100)
        for idx in (25, 50, 100):
            mu_up = g.Ad_star(np.linalg.inv(us[idx])) @ bs[idx]
            assert np.linalg.norm(mu_up - traj.states[idx]) <= 1e-6

    def test_upstairs_flow_matches_lie_poisson_heavy_top(self):
        m = semidirect.heavy_top_model([1.0, 2.0, 3.0], 1.0, [0.0, 0.0, 1.0])
        grp = semidirect.so3_r3().H
        x0 = np.array([0.8, -0.3, 0.6, 0.2, 0.1, 0.9])
        us, bs = cotangent_flow.integrate_cotangent(grp, partial(cotangent_flow.group_cotangent_field, grp, m.hamiltonian), grp.identity(), x0, 1e-3, 1000)
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
        # one compact line through report.dump_json, h read back to its bits
        assert meta.read_text() == '{"H":"kinetic","h":0.01,"n_steps":10,"seed":7,"space":"so3*"}\n'

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
