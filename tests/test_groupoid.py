import numpy as np
import pytest

from gaugemech import bundle, groupoid, liealg
from gaugemech.bundle import BoxBase, BundleSpec, CotangentSample, Point
from gaugemech.groupoid import (
    DualOfPairTangent,
    SideElement,
    VBElement,
    core_compute,
    core_suite,
    dual_structure_suite,
    i2_star,
    j2,
    momentum_morphism_suite,
    quot_rep,
    quotient_dual_suite,
    ses_fiber_check,
    space_ops,
    tv0_membership_residual,
    vb_axiom_suite,
)

import builders


@pytest.fixture(scope="module")
def b():
    g = liealg.so3()
    conn = builders.connection_from_matrix(np.array([[0.3, -0.1], [0.0, 0.2], [0.1, 0.4]]))
    return BundleSpec(g, conn, BoxBase([[-1.0, 1.0], [-1.0, 1.0]]))


class TestAxioms:
    @pytest.mark.parametrize("tag", groupoid.SPACE_TAGS)
    def test_axiom_suite(self, b, tag):
        rep = vb_axiom_suite(b, tag, seed=1)
        assert rep.passed, rep.failures()

    @pytest.mark.parametrize("tag", groupoid.SPACE_TAGS)
    def test_groupoid_laws(self, b, tag):
        rep = groupoid.groupoid_law_suite(b, tag, seed=2)
        assert rep.passed, rep.failures()

    def test_suites_draw_one_arrow_chain(self, b, monkeypatch):
        # the fibre basis replaces every sampled vector; only the arrow chain is drawn, as one
        # block of base coordinates and one block of fibre coordinates
        calls = builders.counted_streams(monkeypatch, groupoid)
        for suite in (lambda: vb_axiom_suite(b, "T(PxP)", seed=1), lambda: groupoid.groupoid_law_suite(b, "T(PxP)", seed=2), lambda: dual_structure_suite(b, seed=3)):
            calls.clear()
            assert suite().passed
            assert calls == ["uniform", "standard_normal"]

    def test_all_zero_elements_exact(self, b):
        ops = space_ops(b, "T(PxP)")
        rng = np.random.default_rng(3)
        p, q, r = b.random_points(rng, ()), b.random_points(rng, ()), b.random_points(rng, ())
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
            p, q, r = b.random_points(rng, ()), b.random_points(rng, ()), b.random_points(rng, ())
            v, w, z = (rng.standard_normal(b.tangent_dim) for _ in range(3))
            ops = space_ops(b, "T(PxP)")
            xi = VBElement(p, q, np.concatenate([v, w]))
            eta = VBElement(q, r, np.concatenate([w, z]))
            prod = ops.product(xi, eta)

            def move(point, tangent, t):
                # the base moved by t along its part of the tangent, the fiber by exp of t times the rest
                fiber = point.fiber @ liealg.expm(t * b.group.from_coords(tangent[b.d :]))
                return Point(b.base.move(point.base, t * tangent[: b.d]), fiber)

            def fd(point, coords):
                plus, minus = move(point, coords, h), move(point, coords, -h)
                dbase = (plus.base - minus.base) / (2 * h)
                dfib = b.group.log(np.linalg.inv(minus.fiber) @ plus.fiber) / (2 * h)
                return np.concatenate([dbase, dfib])

            np.testing.assert_allclose(prod.x[: b.tangent_dim], v, atol=1e-13)
            np.testing.assert_allclose(prod.x[b.tangent_dim :], z, atol=1e-13)
            # the finite-difference representation reproduces the stored coordinates
            assert np.max(np.abs(fd(p, v) - v)) <= 1e-9
            assert np.max(np.abs(fd(r, z) - z)) <= 1e-9

    def test_algebra_triple_product_exact(self, b):
        ops = space_ops(b, "PxgxP")
        rng = np.random.default_rng(5)
        p, q, r = b.random_points(rng, ()), b.random_points(rng, ()), b.random_points(rng, ())
        x = rng.standard_normal(3)
        prod = ops.product(VBElement(p, q, x), VBElement(q, r, x))
        assert prod.p is p and prod.q is r
        np.testing.assert_allclose(prod.x, x)


def _closed_forms(tag, t, n):
    """(source, target, identity, inverse, product) on fibre vectors, as in the module docstring."""
    cat = np.concatenate
    if tag == "T(PxP)":  # s(v,w) = w, t = v, eps(v) = (v,v), i(v,w) = (w,v), (v,w)(w,z) = (v,z)
        return (lambda x: x[t:], lambda x: x[:t], lambda s: cat([s, s]), lambda x: cat([x[t:], x[:t]]), lambda x, y: cat([x[:t], y[t:]]))
    if tag == "PxgxP":  # s = t = X, eps(X) = X, i = id, (p,X,q)(q,X,r) = (p,X,r)
        return (lambda x: x, lambda x: x, lambda s: s, lambda x: x, lambda x, y: x)
    if tag == "T*PxT*P":  # s(phi,psi) = -psi, t = phi, eps(phi) = (phi,-phi), i(phi,psi) = (-psi,-phi)
        return (lambda x: -x[t:], lambda x: x[:t], lambda s: cat([s, -s]), lambda x: cat([-x[t:], -x[:t]]), lambda x, y: cat([x[:t], y[t:]]))
    # Pxg*xP: zero side bundle, eps = 0, i(Xs) = -Xs, (p,Xs,q)(q,Ys,r) = (p,Xs+Ys,r)
    return (lambda x: x[:0], lambda x: x[:0], lambda s: np.zeros(n), lambda x: -x, lambda x, y: x + y)


@pytest.mark.parametrize("tag", groupoid.SPACE_TAGS)
def test_structure_matrices_equal_closed_forms(b, tag):
    # the axiom suites cannot tell a consistently mistyped matrix from the right one
    ops = space_ops(b, tag)
    source, target, identity, inverse, product = _closed_forms(tag, b.tangent_dim, b.n)
    rng = np.random.default_rng(24)
    for _ in range(10):
        p, q, r = b.random_points(rng, ()), b.random_points(rng, ()), b.random_points(rng, ())
        a = VBElement(p, q, rng.standard_normal(ops.inv.shape[0]))
        s, t = ops.source(a), ops.target(a)
        assert s.point is q and np.array_equal(s.x, source(a.x))
        assert t.point is p and np.array_equal(t.x, target(a.x))
        side = SideElement(p, rng.standard_normal(t.x.size))
        eps = ops.identity(side)
        assert eps.p is p and eps.q is p and np.array_equal(eps.x, identity(side.x))
        inv = ops.inverse(a)
        assert inv.p is q and inv.q is p and np.array_equal(inv.x, inverse(a.x))
        bb = groupoid._with_target(ops, VBElement(q, r, rng.standard_normal(ops.inv.shape[0])), ops.source(a))
        prod = ops.product(a, bb)
        assert prod.p is p and prod.q is r and np.array_equal(prod.x, product(a.x, bb.x))


class TestCotangentPairStructure:
    def test_source_target_of_identity(self, b):
        rng = np.random.default_rng(6)
        cov = CotangentSample(b.random_points(rng, ()), rng.standard_normal(b.d), rng.standard_normal(b.n))
        phi = SideElement(cov.point, cov.coords)
        ops = space_ops(b, "T*PxT*P")
        eps = ops.identity(phi)
        assert ops.side_distance(ops.source(eps), phi) <= 1e-14
        assert ops.side_distance(ops.target(eps), phi) <= 1e-14
        # eps(phi) = (phi, -phi)
        np.testing.assert_allclose(eps.x[b.tangent_dim :], -phi.x, atol=1e-14)

    def test_identity_times_inverse(self, b):
        ops = space_ops(b, "T*PxT*P")
        rng = np.random.default_rng(7)
        el = VBElement(b.random_points(rng, ()), b.random_points(rng, ()), rng.standard_normal(ops.inv.shape[0]))
        prod = ops.product(el, ops.inverse(el))
        ident = ops.identity(ops.target(el))
        assert ops.distance(prod, ident) <= 1e-13

    def test_delta_involution_intertwines(self, b):
        # delta(phi, psi) = (phi, -psi) maps (s)-structure to the plain pair groupoid
        ops = space_ops(b, "T*PxT*P")
        t = b.tangent_dim

        def delta(el):
            return VBElement(el.p, el.q, np.concatenate([el.x[:t], -el.x[t:]]))

        rng = np.random.default_rng(8)
        p, q, r = b.random_points(rng, ()), b.random_points(rng, ()), b.random_points(rng, ())
        a = VBElement(p, q, rng.standard_normal(ops.inv.shape[0]))
        bb = groupoid._with_target(ops, VBElement(q, r, rng.standard_normal(ops.inv.shape[0])), ops.source(a))
        prod = delta(ops.product(a, bb))
        da, db = delta(a), delta(bb)
        # plain pair product: (phi, psi)(psi, lam) = (phi, lam) with matching middles
        assert np.max(np.abs(da.x[t:] - (-db.x[:t]) * -1)) <= 1e-13
        np.testing.assert_allclose(prod.x[:t], da.x[:t], atol=1e-13)
        np.testing.assert_allclose(prod.x[t:], db.x[t:], atol=1e-13)


class TestDualStructure:
    def test_zero_covector_has_zero_sides(self, b):
        dual = DualOfPairTangent(b)
        ops = space_ops(b, "T*PxT*P")
        rng = np.random.default_rng(9)
        zero = ops.zero(b.random_points(rng, ()), b.random_points(rng, ()))
        assert np.linalg.norm(dual.dual_target(zero).x) == 0.0
        assert np.linalg.norm(dual.dual_source(zero).x) == 0.0

    def test_suite(self, b):
        rep = dual_structure_suite(b, seed=10)
        assert rep.passed, rep.failures()

    def test_composition_rejects_mismatch(self, b):
        dual = DualOfPairTangent(b)
        rng = np.random.default_rng(11)
        p, q, r = b.random_points(rng, ()), b.random_points(rng, ()), b.random_points(rng, ())
        Phi = VBElement(p, q, rng.standard_normal(2 * b.tangent_dim))
        Psi = VBElement(r, p, rng.standard_normal(2 * b.tangent_dim))
        with pytest.raises(ValueError, match="dual composition undefined"):
            dual.compose(Psi, Phi, middles=np.eye(b.tangent_dim)[:, None])


class TestCores:
    def test_dimensions_match_contract(self, b):
        rng = np.random.default_rng(12)
        p = b.random_points(rng, ())
        dim_p = b.tangent_dim
        cores = core_compute(b, p)
        assert cores["T(PxP)"][0] == dim_p
        assert cores["PxgxP"][0] == 0
        assert cores["quot(TPxTP)"][0] == dim_p
        assert cores["T*gauge"][0] == b.d

    def test_suite_50_fibers(self, b):
        rep = core_suite(b, fibers=50, seed=13)
        assert rep.passed, rep.failures()

    def test_gauge_core_elements_annihilate_momentum(self, b):
        # core of the gauge cotangent groupoid: classes <(phi, 0)> with J(phi) = 0
        rng = np.random.default_rng(14)
        p = b.random_points(rng, ())
        phi = CotangentSample(p, rng.standard_normal(b.d), np.zeros(b.n))
        el = VBElement(p, p, np.concatenate([phi.coords, np.zeros(b.tangent_dim)]))
        assert tv0_membership_residual(b, el) == 0.0
        assert np.linalg.norm(b.momentum(phi)) == 0.0


class TestGaugeDualGroupoid:
    def test_inverse_law(self, b):
        rng = np.random.default_rng(15)
        p, q = b.random_points(rng, ()), b.random_points(rng, ())
        el = VBElement(p, q, rng.standard_normal(3))
        ops = space_ops(b, "Pxg*xP")
        prod = ops.product(el, ops.inverse(el))
        ident = ops.identity(ops.target(el))
        assert ops.distance(prod, ident) <= 1e-14

    def test_i2_star_morphism_on_composable_pairs(self, b):
        ops = space_ops(b, "T*PxT*P")
        coal = space_ops(b, "Pxg*xP")
        rng = np.random.default_rng(16)
        for _ in range(10):
            p, q, r = b.random_points(rng, ()), b.random_points(rng, ()), b.random_points(rng, ())
            x = VBElement(p, q, rng.standard_normal(ops.inv.shape[0]))
            y = groupoid._with_target(ops, VBElement(q, r, rng.standard_normal(ops.inv.shape[0])), ops.source(x))
            lhs = i2_star(b, ops.product(x, y))
            rhs = coal.product(i2_star(b, x), i2_star(b, y))
            assert coal.distance(lhs, rhs) <= 1e-12

    def test_j2_zero_iff_annihilator(self, b):
        rng = np.random.default_rng(17)
        p, q = b.random_points(rng, ()), b.random_points(rng, ())
        phi = CotangentSample(p, rng.standard_normal(b.d), rng.standard_normal(b.n))
        psi = CotangentSample(q, rng.standard_normal(b.d), -b.momentum(phi))
        el = VBElement(p, q, np.concatenate([phi.coords, psi.coords]))
        assert np.linalg.norm(j2(b, el)) <= 1e-14
        assert tv0_membership_residual(b, el) <= 1e-14

    def test_suite(self, b):
        rep = momentum_morphism_suite(b, seed=18)
        assert rep.passed, rep.failures()
        # a and b (2 dim T*P each), the side covector phi and the coalgebra triple
        assert rep.extras["basis_rows"] == 5 * b.tangent_dim + b.n


class TestSES:
    def test_rank_table_so3_over_2d(self, b):
        rep = ses_fiber_check(b, "duzyVtrojka", samples=10, seed=19)
        assert rep.passed, rep.failures()
        dims = rep.extras["rank_table"]["dims"]
        assert dims == [3, 10, 7]  # g -> TP x TP -> quotient over an SO(3)/2D-base fiber

    @pytest.mark.parametrize("sid", ["duzyVtrojka", "duzyVdual", "quotiented"])
    def test_sequences_pass(self, b, sid):
        # the reports of the groupoid.ses entry: two sequences, and the commutation checks of the quotiented duals
        rep = quotient_dual_suite(b, samples=50, seed=20) if sid == "quotiented" else ses_fiber_check(b, sid, samples=50, seed=20)
        assert rep.name == f"groupoid.ses[{sid}]"
        assert rep.passed, rep.failures()

    def test_i2_injective(self, b):
        # I_2(p, X, q) = (vert_p X, vert_q X) has full column rank everywhere
        rng = np.random.default_rng(21)
        p, q = b.random_points(rng, ()), b.random_points(rng, ())
        f, _ = groupoid._seq_matrices(b, "duzyVtrojka", p, q)
        assert np.linalg.matrix_rank(f) == b.n

    def test_quot_rep_kills_vertical_shift(self, b):
        rng = np.random.default_rng(22)
        p, q = b.random_points(rng, ()), b.random_points(rng, ())
        v, w = rng.standard_normal(b.tangent_dim), rng.standard_normal(b.tangent_dim)
        x = b.group.random_algebra(rng)
        el = VBElement(p, q, np.concatenate([v, w]))
        shifted = VBElement(p, q, np.concatenate([v + b.vertical_lift(x), w + b.vertical_lift(x)]))
        r1, r2 = quot_rep(b, el), quot_rep(b, shifted)
        t = b.tangent_dim
        assert np.max(np.abs(r1.x[:t] - r2.x[:t])) <= 1e-12
        assert np.max(np.abs(r1.x[t:] - r2.x[t:])) <= 1e-12


class TestBatchedEngine:
    """Stacks of elements run through the same maps as single elements, row by row."""

    @staticmethod
    def _stack_elements(els):
        def stack(points):
            return Point(np.stack([p.base for p in points]), np.stack([p.fiber for p in points]))

        return VBElement(stack([e.p for e in els]), stack([e.q for e in els]), np.stack([e.x for e in els]))

    @staticmethod
    def _rows_equal(stacked, singles):
        for i, one in enumerate(singles):
            if isinstance(one, VBElement):
                pairs = [(stacked.p, one.p), (stacked.q, one.q)]
            else:
                pairs = [(stacked.point, one.point)]
            for sp, op in pairs:
                assert np.array_equal(sp.base[i], op.base) and np.array_equal(sp.fiber[i], op.fiber)
            assert np.array_equal(stacked.x[i], one.x)

    def _composable_stack(self, b, ops, rng, n=7):
        firsts, seconds = [], []
        for _ in range(n):
            p, q, r = b.random_points(rng, ()), b.random_points(rng, ()), b.random_points(rng, ())
            a = VBElement(p, q, rng.standard_normal(ops.inv.shape[0]))
            firsts.append(a)
            seconds.append(groupoid._with_target(ops, VBElement(q, r, rng.standard_normal(ops.inv.shape[0])), ops.source(a)))
        return firsts, seconds

    @pytest.mark.parametrize("tag", groupoid.SPACE_TAGS)
    def test_stack_equals_single_calls(self, b, tag):
        ops = space_ops(b, tag)
        rng = np.random.default_rng(25)
        firsts, seconds = self._composable_stack(b, ops, rng)
        sides = [SideElement(a.p, rng.standard_normal(ops.src.shape[0])) for a in firsts]
        A, B = self._stack_elements(firsts), self._stack_elements(seconds)
        S = SideElement(A.p, np.stack([s.x for s in sides]))
        for name, one in [
            ("source", lambda a, bb, s: ops.source(a)),
            ("target", lambda a, bb, s: ops.target(a)),
            ("identity", lambda a, bb, s: ops.identity(s)),
            ("inverse", lambda a, bb, s: ops.inverse(a)),
            ("snap", lambda a, bb, s: ops.snap(a, bb)),
            ("product", lambda a, bb, s: ops.product(a, bb)),
            ("add", lambda a, bb, s: ops.add(a, ops.neg(a))),
        ]:
            self._rows_equal(one(A, B, S), [one(a, bb, s) for a, bb, s in zip(firsts, seconds, sides)])
        for distance in (lambda a, bb: ops.distance(a, ops.inverse(bb)), lambda a, bb: ops.side_distance(ops.source(a), ops.target(bb))):
            assert np.array_equal(distance(A, B), [distance(a, bb) for a, bb in zip(firsts, seconds)])

    @pytest.mark.parametrize("tag", groupoid.SPACE_TAGS)
    def test_product_rejects_one_bad_row(self, b, tag):
        ops = space_ops(b, tag)
        A, B = (self._stack_elements(els) for els in self._composable_stack(b, ops, np.random.default_rng(26)))
        ops.product(A, B)
        fiber = B.p.fiber.copy()
        fiber[3] = fiber[3] @ b.group.exp(np.full(b.n, 0.1))
        with pytest.raises(ValueError, match="row 3"):
            ops.product(A, VBElement(Point(B.p.base, fiber), B.q, B.x))

    @pytest.mark.parametrize("tag", groupoid.SPACE_TAGS)
    def test_suites_see_a_corrupted_last_row(self, b, tag, monkeypatch):
        # a product that is wrong on the last basis row of a stack only
        product = groupoid.VBGroupoid.product
        k = space_ops(b, tag).inv.shape[0]

        def last_row_off(self, a, bb):
            out = product(self, a, bb)
            x = out.x.copy()
            x[-1] += 1e-6
            return VBElement(out.p, out.q, x)

        def caught(suite, rows):
            try:
                return not suite().passed
            except ValueError as exc:  # the next product finds the corrupted last row non-composable
                return f"row {rows - 1}:" in str(exc)

        assert vb_axiom_suite(b, tag, seed=1).passed
        monkeypatch.setattr(groupoid.VBGroupoid, "product", last_row_off)
        assert caught(lambda: vb_axiom_suite(b, tag, seed=1), 9 * k)
        assert caught(lambda: groupoid.groupoid_law_suite(b, tag, seed=2), 4 * k)


STRUCTURE = ("src", "tgt", "unit", "inv", "left", "right")


def _rejected(b, tag):
    """Whether vb_axioms or laws fail on the space ``tag``; a ValueError counts, as the CLI reports it as a failed suite_error check."""
    try:
        return not (vb_axiom_suite(b, tag, seed=1).passed and groupoid.groupoid_law_suite(b, tag, seed=2).passed)
    except ValueError:
        return True


@pytest.mark.parametrize("tag, entries", [("T(PxP)", 450), ("PxgxP", 54), ("T*PxT*P", 450), ("Pxg*xP", 27)])
def test_every_single_entry_mutant_fails(b, tag, entries, monkeypatch):
    # each entry of each structure matrix corrupted once: 0 -> 1, +-1 -> 0
    ops = space_ops(b, tag)
    mutants, survivors = 0, []
    for name in STRUCTURE:
        mat = getattr(ops, name)
        for idx in np.ndindex(mat.shape):
            bad = {m: getattr(ops, m) for m in STRUCTURE}
            bad[name] = mat.copy()
            bad[name][idx] = 0.0 if mat[idx] else 1.0
            mutant = groupoid.VBGroupoid(b, tag, **bad)
            monkeypatch.setattr(groupoid, "space_ops", lambda bundle, space: mutant)
            mutants += 1
            if not _rejected(b, tag):
                survivors.append(f"{name}{idx}")
    assert mutants == entries
    assert survivors == []


@pytest.mark.parametrize("tag", groupoid.SPACE_TAGS)
def test_point_routing_mutants_fail(b, tag, monkeypatch):
    product, inverse = groupoid.VBGroupoid.product, groupoid.VBGroupoid.inverse
    # a product that keeps the first arrow, and an inverse that does not swap the points
    monkeypatch.setattr(groupoid.VBGroupoid, "product", lambda self, a, bb: VBElement(a.p, a.q, product(self, a, bb).x))
    assert _rejected(b, tag)
    monkeypatch.undo()
    monkeypatch.setattr(groupoid.VBGroupoid, "inverse", lambda self, el: VBElement(el.p, el.q, inverse(self, el).x))
    assert _rejected(b, tag)


@pytest.mark.parametrize("suite", [
    lambda b, n: core_suite(b, fibers=n, seed=1),
    *(lambda b, n, sid=sid: ses_fiber_check(b, sid, samples=n, seed=3) for sid in ("duzyVtrojka", "duzyVdual")),
    lambda b, n: quotient_dual_suite(b, samples=n, seed=3),
], ids=["cores", "ses-duzyVtrojka", "ses-duzyVdual", "ses-quotiented"])
def test_draws_do_not_scale_with_the_sample_count(b, suite, monkeypatch):
    # each variable is drawn once as a block, so doubling the samples makes no further generator call
    calls = builders.counted_streams(monkeypatch, groupoid)
    counts = []
    for n in (7, 14):
        calls.clear()
        assert suite(b, n).passed
        counts.append(len(calls))
    assert counts[0] == counts[1]
