"""Concrete VB-groupoids over the pair groupoid P x P => P and their duals.

A VB-groupoid over P x P is fixed by linear maps on its fibres, so one engine,
``VBGroupoid``, runs all four spaces.  An element is an arrow (p, q) with one
fibre vector x; a side element is a point with one side vector.  Each space
is six matrices: the side maps ``src`` and ``tgt``, the identity ``unit``, the
inverse ``inv``, and the two halves of the product

    (p, q, x)(q, r, y) = (p, r, left x + right y).

The four spaces over a trivialized bundle P:

    T(PxP)    x = (v, w), side bundle TP:
                  s(v,w) = w, t = v, eps(v) = (v,v), i(v,w) = (w,v), (v,w)(w,z) = (v,z)
    PxgxP     x = X in g, side bundle P x g:
                  s = t = X, eps(X) = X, i = id, (p,X,q)(q,X,r) = (p,X,r)
    T*PxT*P   x = (phi, psi), side bundle T*P, with the twisted structure
                  s(phi,psi) = -psi, t = phi, eps(phi) = (phi,-phi),
                  i(phi,psi) = (-psi,-phi), (phi,psi)(-psi,lam) = (phi,lam)
    Pxg*xP    x = Xs in g*, side bundle the zero bundle over P:
                  eps = 0, i(Xs) = -Xs, (p,Xs,q)(q,Ys,r) = (p,Xs+Ys,r)

plus the annihilator subspace TV0(PxP) inside T*PxT*P and the quotient
(TPxTP)/g with gauge-fixed representatives resolved through the connection.

The Pradines dual of T(PxP) is computed from the defining pairings (duality
of source/target against core products, composition by factorization,
identity by core decomposition) and cross-validated against the closed-form
cotangent structure, which is the independent ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .bundle import BundleSpec, CotangentSample, Point
from .report import SuiteReport
from .rng import stream

Array = np.ndarray

AXIOM_TOL = 1e-11
COMPOSE_TOL = 1e-10
RANK_CUT = 1e-8


@dataclass(frozen=True)
class VBElement:
    """An arrow (p, q) of a VB-groupoid with its fibre vector x."""

    p: Point
    q: Point
    x: Array


@dataclass(frozen=True)
class SideElement:
    """An element of a side bundle: a point and its side vector (empty for the zero bundle)."""

    point: Point
    x: Array


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class VBGroupoid:
    """Groupoid and vector bundle operations of one space, from six structure matrices.

    ``src`` and ``tgt`` (side x fibre) give the source and target side vectors,
    ``unit`` (fibre x side) the identity, ``inv`` (fibre x fibre) the inverse,
    and ``left``, ``right`` (fibre x fibre) the product.  Every entry is 0 or
    +-1 with at most two nonzeros per row, so every structure map is exact.
    """

    def __init__(self, bundle: BundleSpec, tag: str, src: Array, tgt: Array, unit: Array, inv: Array, left: Array, right: Array):
        self.bundle, self.tag = bundle, tag
        self.src, self.tgt, self.unit, self.inv, self.left, self.right = src, tgt, unit, inv, left, right
        # snap keeps the part of b that tgt does not read and writes source(a) into the rest
        self.keep = np.eye(inv.shape[0]) - tgt.T @ tgt
        self.carry = tgt.T @ src

    def source(self, el: VBElement) -> SideElement:
        return SideElement(el.q, self.src @ el.x)

    def target(self, el: VBElement) -> SideElement:
        return SideElement(el.p, self.tgt @ el.x)

    def identity(self, side: SideElement) -> VBElement:
        return VBElement(side.point, side.point, self.unit @ side.x)

    def inverse(self, el: VBElement) -> VBElement:
        return VBElement(el.q, el.p, self.inv @ el.x)

    def snap(self, a: VBElement, b: VBElement) -> VBElement:
        """Replace b's target side by source(a) (projection onto composability)."""
        return VBElement(a.q, b.q, self.keep @ b.x + self.carry @ a.x)

    def product(self, a: VBElement, b: VBElement, snap_tol: float = COMPOSE_TOL) -> VBElement:
        resid = self.side_distance(self.source(a), self.target(b))
        if resid > snap_tol:
            raise ValueError(f"non-composable elements in {self.tag} (residual {resid:.2e})")
        # right never reads the part of b that snap would overwrite
        return VBElement(a.p, b.q, self.left @ a.x + self.right @ b.x)

    def add(self, a: VBElement, b: VBElement) -> VBElement:
        return VBElement(a.p, a.q, a.x + b.x)

    def neg(self, a: VBElement) -> VBElement:
        return VBElement(a.p, a.q, -1.0 * a.x)

    def zero(self, p: Point, q: Point) -> VBElement:
        return VBElement(p, q, np.zeros(self.inv.shape[0]))

    def random(self, rng: np.random.Generator, p: Point, q: Point) -> VBElement:
        return VBElement(p, q, rng.standard_normal(self.inv.shape[0]))

    def side_distance(self, s1: SideElement, s2: SideElement) -> float:
        return self.bundle.point_distance(s1.point, s2.point) + float(np.linalg.norm(s1.x - s2.x))

    def side_add(self, s1: SideElement, s2: SideElement) -> SideElement:
        return SideElement(s1.point, s1.x + s2.x)

    def distance(self, a: VBElement, b: VBElement) -> float:
        darr = self.bundle.point_distance(a.p, b.p) + self.bundle.point_distance(a.q, b.q)
        return darr + float(np.linalg.norm(a.x - b.x))


SPACE_TAGS = ("T(PxP)", "PxgxP", "T*PxT*P", "Pxg*xP")


def space_ops(bundle: BundleSpec, tag: str) -> VBGroupoid:
    """The structure matrices of one of the four spaces over the pair groupoid of P."""
    if tag in ("T(PxP)", "T*PxT*P"):
        # fibre (v, w) or (phi, psi); the cotangent pair twists source, identity and inverse by -1
        sgn = 1.0 if tag == "T(PxP)" else -1.0
        e, z = np.eye(bundle.tangent_dim), np.zeros((bundle.tangent_dim,) * 2)
        return VBGroupoid(
            bundle, tag, src=np.hstack([z, sgn * e]), tgt=np.hstack([e, z]), unit=np.vstack([e, sgn * e]),
            inv=np.block([[z, sgn * e], [sgn * e, z]]), left=np.block([[e, z], [z, z]]), right=np.block([[z, z], [z, e]]),
        )
    e = np.eye(bundle.n)
    if tag == "PxgxP":
        return VBGroupoid(bundle, tag, src=e, tgt=e, unit=e, inv=e, left=e, right=np.zeros_like(e))
    if tag == "Pxg*xP":
        none = np.zeros((0, bundle.n))
        return VBGroupoid(bundle, tag, src=none, tgt=none, unit=none.T, inv=-e, left=e, right=e)
    raise KeyError(f"unknown VB-groupoid space {tag!r}")


def _pair(u: Array, v: Array) -> float:
    """<(phi, psi), (v, w)> = phi.v + psi.w, summed leg by leg."""
    t = u.size // 2
    return float(u[:t] @ v[:t] + u[t:] @ v[t:])


def _covectors(bundle: BundleSpec, el: VBElement) -> tuple[CotangentSample, CotangentSample]:
    """The legs (phi at p, psi at q) of an element of T*PxT*P."""
    d, t = bundle.d, bundle.tangent_dim
    return CotangentSample(el.p, el.x[:d], el.x[d:t]), CotangentSample(el.q, el.x[t : t + d], el.x[t + d :])


# ---------------------------------------------------------------------------
# membership helpers for constrained spaces
# ---------------------------------------------------------------------------


def j2(bundle: BundleSpec, el: VBElement) -> Array:
    """J_2(phi, psi) = phi o Tkappa_p(e) + psi o Tkappa_q(e)."""
    phi, psi = _covectors(bundle, el)
    return bundle.momentum(phi) + bundle.momentum(psi)


def tv0_membership_residual(bundle: BundleSpec, el: VBElement) -> float:
    """Membership defect of T^{V0}(PxP): the annihilator condition J_2 = 0."""
    return float(np.linalg.norm(j2(bundle, el)))


def quot_rep(bundle: BundleSpec, el: VBElement) -> VBElement:
    """Gauge-fixed representative of a class in (TP x TP)/g.

    The algebra acts by X: (v, w) -> (v + vert_p X, w + vert_q X); the
    representative subtracts X = alpha_p(v) so the first leg is horizontal.
    """
    t = bundle.tangent_dim
    shift = bundle.vertical_lift(bundle.alpha(el.p, el.x[:t]))
    return VBElement(el.p, el.q, np.concatenate([el.x[:t] - shift, el.x[t:] - shift]))


# ---------------------------------------------------------------------------
# VB-groupoid axiom suite
# ---------------------------------------------------------------------------


def _sample_arrow_chain(bundle: BundleSpec, rng: np.random.Generator) -> tuple[Point, Point, Point]:
    return bundle.random_point(rng), bundle.random_point(rng), bundle.random_point(rng)


def vb_axiom_suite(bundle: BundleSpec, space: str, samples: int = 60, seed: int = 0, tol: float = AXIOM_TOL) -> SuiteReport:
    """Interchange law and side identities on random composable/addable data."""
    ops = space_ops(bundle, space)
    rep = SuiteReport(f"groupoid.vb_axioms[{space}]")
    rng = stream(seed, f"groupoid.vb_axioms/{space}/{bundle.name}")
    worst = {k: 0.0 for k in ("interchange", "identity_additive", "inverse_additive", "zero_multiplicative", "zero_inverse", "neg_product")}
    for _ in range(samples):
        p, q, r = _sample_arrow_chain(bundle, rng)

        eta1 = ops.random(rng, q, r)
        eta2 = ops.random(rng, q, r)
        # build xi_i over (p, q) with source snapped to target(eta_i)
        xi1 = _with_source(ops, ops.random(rng, p, q), ops.target(eta1))
        xi2 = _with_source(ops, ops.random(rng, p, q), ops.target(eta2))

        lhs = ops.product(ops.add(xi1, xi2), ops.add(eta1, eta2))
        rhs = ops.add(ops.product(xi1, eta1), ops.product(xi2, eta2))
        worst["interchange"] = max(worst["interchange"], ops.distance(lhs, rhs))

        # identity section is additive over a common side fiber
        b1, b2 = ops.source(ops.random(rng, p, q)), ops.source(ops.random(rng, p, q))
        lhs = ops.identity(ops.side_add(b1, b2))
        rhs = ops.add(ops.identity(b1), ops.identity(b2))
        worst["identity_additive"] = max(worst["identity_additive"], ops.distance(lhs, rhs))

        # inversion is additive over a common arrow
        a1, a2 = ops.random(rng, p, q), ops.random(rng, p, q)
        lhs = ops.inverse(ops.add(a1, a2))
        rhs = ops.add(ops.inverse(a1), ops.inverse(a2))
        worst["inverse_additive"] = max(worst["inverse_additive"], ops.distance(lhs, rhs))

        # zero section is multiplicative, and compatible with inversion
        lhs = ops.zero(p, r)
        rhs = ops.product(ops.zero(p, q), ops.zero(q, r))
        worst["zero_multiplicative"] = max(worst["zero_multiplicative"], ops.distance(lhs, rhs))
        worst["zero_inverse"] = max(worst["zero_inverse"], ops.distance(ops.zero(q, p), ops.inverse(ops.zero(p, q))))

        # (-eta)(-xi) = -(eta xi)
        eta = _with_source(ops, ops.random(rng, p, q), ops.target(eta1))
        lhs = ops.product(ops.neg(eta), ops.neg(eta1))
        rhs = ops.neg(ops.product(eta, eta1))
        worst["neg_product"] = max(worst["neg_product"], ops.distance(lhs, rhs))

    for name, resid in sorted(worst.items()):
        rep.add(name, resid, tol)
    rep.extras["trials"] = samples
    rep.extras["space"] = space
    return rep


def groupoid_law_suite(bundle: BundleSpec, space: str, samples: int = 40, seed: int = 0, tol: float = AXIOM_TOL) -> SuiteReport:
    """Pure groupoid laws: s/t of identities, associativity, involution, inverse law."""
    ops = space_ops(bundle, space)
    rep = SuiteReport(f"groupoid.laws[{space}]")
    rng = stream(seed, f"groupoid.laws/{space}/{bundle.name}")
    worst = {k: 0.0 for k in ("identity_source_target", "associativity", "involution", "inverse_product")}
    for _ in range(samples):
        p, q, r = _sample_arrow_chain(bundle, rng)
        s = bundle.random_point(rng)
        el = ops.random(rng, p, q)

        side = ops.source(el)
        ident = ops.identity(side)
        resid = ops.side_distance(ops.source(ident), side) + ops.side_distance(ops.target(ident), side)
        worst["identity_source_target"] = max(worst["identity_source_target"], resid)

        a = ops.random(rng, p, q)
        b = _with_target(ops, ops.random(rng, q, r), ops.source(a))
        c = _with_target(ops, ops.random(rng, r, s), ops.source(b))
        lhs = ops.product(ops.product(a, b), c)
        rhs = ops.product(a, ops.product(b, c))
        worst["associativity"] = max(worst["associativity"], ops.distance(lhs, rhs))

        worst["involution"] = max(worst["involution"], ops.distance(ops.inverse(ops.inverse(el)), el))

        prod = ops.product(el, ops.inverse(el))
        worst["inverse_product"] = max(worst["inverse_product"], ops.distance(prod, ops.identity(ops.target(el))))
    for name, resid in sorted(worst.items()):
        rep.add(name, resid, tol)
    rep.extras["trials"] = samples
    return rep


def _with_source(ops: VBGroupoid, el: VBElement, side: SideElement) -> VBElement:
    """Rebuild el so that source(el) equals the given side element."""
    # snap(a, b) replaces target(b) by source(a); apply to the inverse and flip back
    anchor = ops.identity(side)
    return ops.inverse(ops.snap(anchor, ops.inverse(el)))


def _with_target(ops: VBGroupoid, el: VBElement, side: SideElement) -> VBElement:
    anchor = ops.identity(side)
    return ops.snap(anchor, el)


# ---------------------------------------------------------------------------
# Pradines dual of T(PxP), from the defining pairings
# ---------------------------------------------------------------------------


class DualOfPairTangent:
    """The dual VB-groupoid of Omega = T(PxP), built from the duality pairings.

    Elements of Omega* over an arrow (x, y) are covector pairs (phi_x, psi_y)
    pairing with (v_x, w_y) as phi.v + psi.w.  Source/target, composition and
    identities are evaluated purely through the pairing formulas, so they can
    be cross-checked against the closed-form structure of T*PxT*P.
    """

    def __init__(self, bundle: BundleSpec):
        self.bundle = bundle
        self.omega = space_ops(bundle, "T(PxP)")

    def core_element(self, x: Point, v: Array) -> VBElement:
        """Core of Omega at x: (v_x, 0_x) over the identity arrow (x, x)."""
        return VBElement(x, x, np.concatenate([v, np.zeros(self.bundle.tangent_dim)]))

    def dual_target(self, Phi: VBElement) -> SideElement:
        """<beta~*(Phi), k> = <Phi, k 0_gamma> over the core at the target leg."""
        zero = self.omega.zero(Phi.p, Phi.q)
        eye = np.eye(self.bundle.tangent_dim)
        vals = np.array([_pair(Phi.x, self.omega.product(self.core_element(Phi.p, e), zero).x) for e in eye])
        return SideElement(Phi.p, vals)

    def dual_source(self, Phi: VBElement) -> SideElement:
        """<alpha~*(Phi), k> = <Phi, -0_gamma k^{-1}> over the core at the source leg."""
        zero = self.omega.zero(Phi.p, Phi.q)
        eye = np.eye(self.bundle.tangent_dim)
        vals = np.empty(len(eye))
        for i, e in enumerate(eye):
            prod = self.omega.product(zero, self.omega.inverse(self.core_element(Phi.q, e)))
            vals[i] = _pair(Phi.x, self.omega.neg(prod).x)
        return SideElement(Phi.q, vals)

    def compose(self, Psi: VBElement, Phi: VBElement, middles: Iterable[Array] | None = None, tol: float = COMPOSE_TOL) -> tuple[VBElement, float]:
        """Composition by factorization: <Psi Phi, eta xi> = <Psi, eta> + <Phi, xi>.

        Every element of Omega over the composed arrow factors as eta xi with an
        arbitrary middle tangent vector; the result must not depend on it.
        Returns the composed element and the worst deviation across the supplied
        middle choices (factorization independence).
        """
        mismatch = self.omega.side_distance(self.dual_source(Psi), self.dual_target(Phi))
        if mismatch > tol:
            raise ValueError(f"dual composition undefined: alpha~*(Psi) != beta~*(Phi) (residual {mismatch:.2e})")
        dim = self.bundle.tangent_dim
        eye, zero = np.eye(dim), np.zeros(dim)

        def value(zeta_v: Array, zeta_w: Array, mid: Array) -> float:
            # eta = (zeta_v, mid) over (z, x) and xi = (mid, zeta_w) over (x, y)
            return _pair(Psi.x, np.concatenate([zeta_v, mid])) + _pair(Phi.x, np.concatenate([mid, zeta_w]))

        vals = np.empty(2 * dim)
        for i in range(dim):
            vals[i] = value(eye[i], zero, zero)
            vals[dim + i] = value(zero, eye[i], zero)
        spread = 0.0
        if middles is not None:
            ref = value(eye[0], zero, zero)
            for mid in middles:
                spread = max(spread, abs(value(eye[0], zero, np.asarray(mid)) - ref))
        return VBElement(Psi.p, Phi.q, vals), spread

    def _from_core_split(self, side: SideElement, value: Callable[[Array, Array], float]) -> VBElement:
        """A covector over the identity arrow at side.point, from its value on each basis
        vector xi = 1_b + k split by b = source(xi); ``value`` gets b and beta~(k)."""
        eye = np.eye(2 * self.bundle.tangent_dim)
        vals = np.empty(len(eye))
        for slot, e in enumerate(eye):
            xi = VBElement(side.point, side.point, e)
            b = self.omega.source(xi)
            k = self.omega.add(xi, self.omega.neg(self.omega.identity(b)))
            vals[slot] = value(b.x, self.omega.target(k).x)
        return VBElement(side.point, side.point, vals)

    def dual_identity(self, chi: SideElement) -> VBElement:
        """<1_chi, 1_b + k> = <chi, k>: reconstruct the identity covector at chi."""
        return self._from_core_split(chi, lambda b, k: float(chi.x @ k))

    def side_dual_embedding(self, omega_cov: SideElement) -> VBElement:
        """Identify omega in B*_p with omega-bar: <omega-bar, 1_b + k> = <omega, b + beta~(k)>."""
        return self._from_core_split(omega_cov, lambda b, k: float(omega_cov.x @ (b + k)))


def dual_structure_suite(bundle: BundleSpec, samples: int = 30, seed: int = 0, taus: int = 100, tol: float = 1e-11, match_tol: float = 1e-10) -> SuiteReport:
    """Dual structure maps agree with the closed-form cotangent pair groupoid."""
    rep = SuiteReport(f"groupoid.dual_structure[{bundle.name}]")
    rng = stream(seed, f"groupoid.dual_structure/{bundle.name}")
    dual = DualOfPairTangent(bundle)
    cot = space_ops(bundle, "T*PxT*P")
    t = bundle.tangent_dim
    worst = {k: 0.0 for k in ("target_matches", "source_matches", "compose_matches", "factorization_independence", "identity_matches", "side_dual_embedding", "zero_covector_sides")}
    for _ in range(samples):
        p, q, r = _sample_arrow_chain(bundle, rng)
        Phi = cot.random(rng, p, q)

        worst["target_matches"] = max(worst["target_matches"], cot.side_distance(dual.dual_target(Phi), cot.target(Phi)))
        worst["source_matches"] = max(worst["source_matches"], cot.side_distance(dual.dual_source(Phi), cot.source(Phi)))

        # composable pair: Psi = (lam, -phi) over (r, p) with alpha~*(Psi) = beta~*(Phi)
        lam = rng.standard_normal(t)
        Psi = VBElement(r, p, np.concatenate([lam, -Phi.x[:t]]))
        middles = [rng.standard_normal(t) for _ in range(taus)]
        composed, spread = dual.compose(Psi, Phi, middles=middles)
        worst["factorization_independence"] = max(worst["factorization_independence"], spread)
        worst["compose_matches"] = max(worst["compose_matches"], cot.distance(composed, cot.product(Psi, Phi)))

        chi = SideElement(p, rng.standard_normal(t))
        worst["identity_matches"] = max(worst["identity_matches"], cot.distance(dual.dual_identity(chi), cot.identity(chi)))

        omega_cov = SideElement(p, rng.standard_normal(t))
        expected = VBElement(p, p, np.concatenate([omega_cov.x, np.zeros(t)]))
        worst["side_dual_embedding"] = max(worst["side_dual_embedding"], cot.distance(dual.side_dual_embedding(omega_cov), expected))

        zero = cot.zero(p, q)
        worst["zero_covector_sides"] = max(
            worst["zero_covector_sides"],
            float(np.linalg.norm(dual.dual_target(zero).x)) + float(np.linalg.norm(dual.dual_source(zero).x)),
        )
    for name, resid in sorted(worst.items()):
        rep.add(name, resid, match_tol if name.endswith("matches") or name in ("side_dual_embedding", "zero_covector_sides") else tol)
    rep.extras["trials"] = samples
    rep.extras["tau_perturbations"] = taus
    return rep


# ---------------------------------------------------------------------------
# cores
# ---------------------------------------------------------------------------


def _nullspace(mat: Array, rank_cut: float = RANK_CUT) -> tuple[Array, bool]:
    """Kernel basis by SVD; flags an ambiguous spectrum near the threshold."""
    u, s, vt = np.linalg.svd(mat)
    smax = s[0] if s.size else 0.0
    cut = rank_cut * max(smax, 1.0)
    rank = int(np.sum(s > cut))
    ambiguous = bool(np.any((s > 0.01 * cut) & (s <= 100 * cut)))
    return vt[rank:].T, ambiguous


def core_compute(bundle: BundleSpec, space: str, point: Point) -> tuple[int, Array, bool]:
    """Core fiber at a point: kernel of the source map over the identity arrow.

    Returns (dimension, basis columns in fiber coordinates, ambiguity flag).
    """
    d, n = bundle.d, bundle.n
    if space == "T(PxP)":
        # fiber coords (v, w); source = w
        s_mat = np.zeros((d + n, 2 * (d + n)))
        s_mat[:, d + n :] = np.eye(d + n)
    elif space == "PxgxP":
        # fiber coords X; the side element over p is (p, X), zero iff X = 0
        s_mat = np.eye(n)
    elif space == "quot(TPxTP)":
        # gauge-fixed class coords (dbase_v, w'): source class is <w'>,
        # zero iff the horizontal (base) part of w' vanishes
        s_mat = np.zeros((d, d + (d + n)))
        s_mat[:, d : 2 * d] = np.eye(d)
    elif space == "T*gauge":
        # fiber of T*((PxP)/G) over the identity gauge arrow: (a_phi, b_phi, a_psi)
        # with b_psi = -b_phi; source (per the descended structure) is
        # <-psi> = (-a_psi, b_phi): kernel = {(a_phi, 0, 0)} = J^{-1}(0)/G fiber
        s_mat = np.zeros((d + n, 2 * d + n))
        s_mat[:d, d + n :] = -np.eye(d)
        s_mat[d:, d : d + n] = np.eye(n)
    else:
        raise KeyError(f"no core computation for space {space!r}")
    basis, ambiguous = _nullspace(s_mat)
    return basis.shape[1], basis, ambiguous


def core_suite(bundle: BundleSpec, fibers: int = 50, seed: int = 0) -> SuiteReport:
    """Core dimensions across sampled fibers: (dim P, 0, dim P) plus the gauge core."""
    rep = SuiteReport(f"groupoid.cores[{bundle.name}]")
    rng = stream(seed, f"groupoid.cores/{bundle.name}")
    d, n = bundle.d, bundle.n
    expected = {"T(PxP)": d + n, "PxgxP": 0, "quot(TPxTP)": d + n, "T*gauge": d}
    dims_seen: dict[str, set[int]] = {k: set() for k in expected}
    ambiguous = False
    for _ in range(fibers):
        p = bundle.random_point(rng)
        for space in expected:
            dim, _, amb = core_compute(bundle, space, p)
            dims_seen[space].add(dim)
            ambiguous = ambiguous or amb
    for space, want in expected.items():
        got = dims_seen[space]
        rep.add(f"core_dim[{space}]", 0.0 if got == {want} else 1.0, 0.5, expected=want, got=sorted(got))
    rep.add("rank_ambiguity", 1.0 if ambiguous else 0.0, 0.5)
    # alternating sum of core dimensions in the tangent-side sequence
    alt = expected["PxgxP"] - expected["T(PxP)"] + expected["quot(TPxTP)"]
    rep.add("core_alternating_sum", float(abs(alt)), 0.5)
    rep.extras["fibers"] = fibers
    rep.extras["rank_table"] = expected
    return rep


# ---------------------------------------------------------------------------
# the groupoid P x g* x P and the momentum morphism I_2*
# ---------------------------------------------------------------------------


def i2_star(bundle: BundleSpec, el: VBElement) -> VBElement:
    """I_2*(phi, psi) = (p, J(phi) + J(psi), q)."""
    return VBElement(el.p, el.q, j2(bundle, el))


def momentum_morphism_suite(bundle: BundleSpec, samples: int = 60, seed: int = 0, tol: float = AXIOM_TOL) -> SuiteReport:
    """I_2* is a groupoid morphism; J_2 = 0 cuts out the annihilator subgroupoid."""
    rep = SuiteReport(f"groupoid.momentum_morphism[{bundle.name}]")
    rng = stream(seed, f"groupoid.momentum_morphism/{bundle.name}")
    cot = space_ops(bundle, "T*PxT*P")
    coal = space_ops(bundle, "Pxg*xP")
    t = bundle.tangent_dim
    w_mor = w_inv = w_eps = w_tv0 = 0.0
    for _ in range(samples):
        p, q, r = _sample_arrow_chain(bundle, rng)
        a = cot.random(rng, p, q)
        b = _with_target(cot, cot.random(rng, q, r), cot.source(a))
        lhs = i2_star(bundle, cot.product(a, b))
        rhs = coal.product(i2_star(bundle, a), i2_star(bundle, b))
        w_mor = max(w_mor, coal.distance(lhs, rhs))

        w_inv = max(w_inv, coal.distance(i2_star(bundle, cot.inverse(a)), coal.inverse(i2_star(bundle, a))))

        phi = SideElement(p, rng.standard_normal(t))
        w_eps = max(w_eps, coal.distance(i2_star(bundle, cot.identity(phi)), coal.identity(SideElement(p, np.zeros(0)))))

        # (p, Xs, q)(q, -Xs, p) = eps(p)
        trip = coal.random(rng, p, q)
        w_inv = max(w_inv, coal.distance(coal.product(trip, coal.inverse(trip)), coal.identity(coal.target(trip))))

        # J_2 = 0 iff the pair annihilates the diagonal vertical subspace
        el0 = VBElement(p, q, np.concatenate([a.x[: t + bundle.d], -bundle.momentum(_covectors(bundle, a)[0])]))
        w_tv0 = max(w_tv0, tv0_membership_residual(bundle, el0))
        vert = bundle.vertical_lift(bundle.group.random_algebra(rng))
        w_tv0 = max(w_tv0, abs(_pair(el0.x, np.concatenate([vert, vert]))))
    rep.add("i2_star_morphism", w_mor, tol)
    rep.add("i2_star_inverse_identity", w_inv, tol)
    rep.add("i2_star_identity_section", w_eps, tol)
    rep.add("tv0_annihilator_equivalence", w_tv0, tol)
    rep.extras["trials"] = samples
    return rep


# ---------------------------------------------------------------------------
# short exact sequences, fiberwise
# ---------------------------------------------------------------------------


def _im_ker_residual(f_mat: Array, h_mat: Array) -> float:
    """|| (I - proj_im(F)) . basis(ker H) ||: image of F vs kernel of H."""
    ker, _ = _nullspace(h_mat)
    if ker.size == 0:
        return 0.0
    q, _ = np.linalg.qr(f_mat)
    resid = ker - q @ (q.T @ ker)
    return float(np.linalg.norm(resid))


def _seq_matrices(bundle: BundleSpec, sequence_id: str, p: Point, q: Point) -> tuple[Array, Array, dict]:
    """First and second maps of a short exact sequence at the arrow (p, q)."""
    d, n = bundle.d, bundle.n
    td = d + n
    if sequence_id == "duzyVtrojka":
        # P x g x P --I2--> TP x TP --A2--> (TP x TP)/g
        f = np.zeros((2 * td, n))
        f[d : d + n, :] = np.eye(n)
        f[td + d :, :] = np.eye(n)
        h = np.zeros((d + td, 2 * td))
        h[:d, :d] = np.eye(d)  # base part of v
        # w' = w - vert_q(alpha_p(v))
        a_p = _alpha_matrix(bundle, p)
        h[d:, td:] = np.eye(td)
        h[d + d :, :td] -= a_p
        info = {"dims": [n, 2 * td, d + td]}
    elif sequence_id in ("duzyVdual", "quotiented"):
        # TV0(PxP) --A2*--> T*P x T*P --I2*--> P x g* x P, and its quotient
        # T*((PxP)/G) --a2*--> (T*P x T*P)/G --iota2*--> (P x g* x P)/G in the
        # gauge-fixed fibers (source leg at fiber identity): the same matrices.
        # TV0 basis: (a1, b, a2, -b)
        f = np.zeros((2 * td, 2 * d + n))
        f[:d, :d] = np.eye(d)
        f[d : d + n, d : d + n] = np.eye(n)
        f[td : td + d, d + n :] = np.eye(d)
        f[td + d :, d : d + n] = -np.eye(n)
        h = np.zeros((n, 2 * td))
        h[:, d : d + n] = np.eye(n)
        h[:, td + d :] = np.eye(n)
        info = {"dims": [2 * d + n, 2 * td, n]}
    elif sequence_id == "Adual":
        # T*(P/G) --a*--> T*P/G --iota*--> P x_{Ad*} g*
        f = np.zeros((td, d))
        f[:d, :] = np.eye(d)
        h = np.zeros((n, td))
        h[:, d:] = np.eye(n)
        info = {"dims": [d, td, n]}
    else:
        raise KeyError(f"unknown sequence {sequence_id!r}")
    return f, h, info


def _alpha_matrix(bundle: BundleSpec, p: Point) -> Array:
    """Matrix of alpha_p on tangent coordinates, as rows of the vertical lift."""
    out = np.zeros((bundle.n, bundle.tangent_dim))
    eye = np.eye(bundle.tangent_dim)
    for i in range(bundle.tangent_dim):
        out[:, i] = bundle.alpha(p, eye[i])
    return out


def ses_fiber_check(bundle: BundleSpec, sequence_id: str, samples: int = 50, seed: int = 0, tol: float = 1e-10) -> SuiteReport:
    """Injectivity / surjectivity / im = ker at sampled arrows, by rank and residual."""
    rep = SuiteReport(f"groupoid.ses[{sequence_id}]")
    rng = stream(seed, f"groupoid.ses/{sequence_id}/{bundle.name}")
    w_inj = w_surj = w_imker = w_comp = 0.0
    dims = None
    for _ in range(samples):
        p, q = bundle.random_point(rng), bundle.random_point(rng)
        f, h, info = _seq_matrices(bundle, sequence_id, p, q)
        dims = info["dims"]
        s_f = np.linalg.svd(f, compute_uv=False)
        s_h = np.linalg.svd(h, compute_uv=False)
        w_inj = max(w_inj, 0.0 if int(np.sum(s_f > RANK_CUT * s_f[0])) == f.shape[1] else 1.0)
        w_surj = max(w_surj, 0.0 if int(np.sum(s_h > RANK_CUT * s_h[0])) == h.shape[0] else 1.0)
        w_comp = max(w_comp, float(np.max(np.abs(h @ f))))
        w_imker = max(w_imker, _im_ker_residual(f, h))
    rep.add("first_map_injective", w_inj, 0.5)
    rep.add("second_map_surjective", w_surj, 0.5)
    rep.add("composite_zero", w_comp, tol)
    rep.add("image_equals_kernel", w_imker, tol)
    rep.extras["trials"] = samples
    rep.extras["sequence_id"] = sequence_id
    rep.extras["rank_table"] = {"dims": dims, "rank_first": dims[0], "rank_second": dims[2]}

    if sequence_id == "quotiented":
        _quotient_dual_commutation(bundle, rep, samples=samples, seed=seed)
    return rep


def _quotient_dual_commutation(bundle: BundleSpec, rep: SuiteReport, samples: int, seed: int) -> None:
    """Contragredient pairing identity and Omega*/G ~ (Omega/G)* fiber isomorphism."""
    rng = stream(seed, f"groupoid.quotient_dual/{bundle.name}")
    cot = space_ops(bundle, "T*PxT*P")
    tan = space_ops(bundle, "T(PxP)")
    t = bundle.tangent_dim
    w_pair = 0.0
    w_iso = 0.0
    conds = []
    for _ in range(samples):
        p, q = bundle.random_point(rng), bundle.random_point(rng)
        g = bundle.group.random_element(rng)
        Phi = cot.random(rng, p, q)
        xi = tan.random(rng, p, q)

        # <Phi g, xi g> = <Phi, xi>: the contragredient action makes the pairing invariant
        Phi_g = np.concatenate([bundle.cot_act(leg, g).coords for leg in _covectors(bundle, Phi)])
        tk = bundle.tk_g(g)
        xi_g = np.concatenate([tk @ xi.x[:t], tk @ xi.x[t:]])
        w_pair = max(w_pair, abs(_pair(Phi_g, xi_g) - _pair(Phi.x, xi.x)))

        # <Phi g, xi'> = <Phi, xi' g^{-1}> for xi' over the shifted arrow
        xi2 = tan.random(rng, bundle.act(p, g), bundle.act(q, g))
        tki = bundle.tk_g(np.linalg.inv(g))
        xi2_back = np.concatenate([tki @ xi2.x[:t], tki @ xi2.x[t:]])
        w_pair = max(w_pair, abs(_pair(Phi_g, xi2.x) - _pair(Phi.x, xi2_back)))

        # induced fiberwise map Omega*/G -> (Omega/G)*: classes given by basis
        # representatives at a translated arrow, paired after aligning both to
        # the gauge arrow by g^{-1}.  In the gauge-fixed dual bases the matrix
        # is the identity iff the implemented cotangent transport really is
        # the contragredient of the tangent one.
        gi = np.linalg.inv(g)
        cot_back = np.kron(
            np.eye(2),
            np.block(
                [
                    [np.eye(bundle.d), np.zeros((bundle.d, bundle.n))],
                    [np.zeros((bundle.n, bundle.d)), bundle.group.Ad_star(gi)],
                ]
            ),
        )
        tan_back = np.kron(np.eye(2), bundle.tk_g(gi))
        mat = cot_back.T @ tan_back
        conds.append(float(np.linalg.cond(mat)))
        w_iso = max(w_iso, float(np.max(np.abs(mat - np.eye(2 * t)))))
    rep.add("contragredient_pairing", w_pair, 1e-12)
    rep.add("quotient_dual_iso_residual", w_iso, 1e-10)
    rep.extras["iso_condition_number"] = max(conds) if conds else 1.0
