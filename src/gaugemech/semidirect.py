"""Semidirect products H = K x| N over a homomorphic section, and their phase spaces.

The group product is (k, u)(l, w) = (kl, rho(l)(u) w) with a trivial cocycle,
so rho: K -> Aut N is an anti-homomorphism and the section k -> (k, e) is a
group homomorphism.  rho(l) acts on N's matrix embedding by conjugation with
a matrix R(l), with R itself an anti-homomorphism of K.

H embeds faithfully as block matrices

    Psi(k, u) = diag( E_K(k),  E_N(rho(k^-1)(u)) . R(k^-1) ) = diag( E_K(k),  R(k^-1) . E_N(u) ),

which turns the whole of the trivialization/momentum machinery into exact
matrix algebra on tiny matrices: the tangent trivialization reads

    T Sigma_(k,u) (xi, nu) = Ad_{iota(u^-1)} sigma.(xi) + iota.(nu)

with sigma. and iota. the algebra inclusions of K and N into the algebra of H.
Cotangent data is stored in left-trivialized coordinates, where the body
momenta J_K and J_N are the coordinates themselves; the factorized momentum
map of the product phase space is J(theta, chi) = (theta, chi).  A point of
T*H = T*K x T*N is the ``CotangentSample`` (Point(k, u), theta, chi) of the
total bundle H -> K (``total_bundle``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import fd, schema
from .bundle import BundleSpec, ConnectionData, GroupBase, CotangentSample, Point, dual_atiyah_matrices
from .liealg import LieGroupSpec, NotClosedError, expm, so3, translation_group
from .linalg import exactness, row_dot, row_form, row_matvec, row_norm
from .poisson import ScalarField, canonical_two_form, coordinate_field, dexp_left, lie_poisson
from .report import SuiteReport, worst
from .rng import stream

Array = np.ndarray


@dataclass
class SemidirectSpec:
    """K x|_rho N with rho given by conjugator matrices on N's embedding.

    ``rho_generators[i]`` is r_i = dR(e_i); for group elements R(k) is
    exp(r(log k)) (valid inside the log domain of K, which is where all
    sampling happens).  When every r_i is -e_i in the leading ``K.embed``
    block and zero elsewhere, that is exactly R(k) = diag(k^-1, I), which
    ``R`` takes in closed form with ``K.inverse`` (the transpose for SO(3)).
    This rule is read off the generators, never supplied.  ``H`` is the total
    group as a LieGroupSpec, its basis the K-inclusions then the N-inclusions;
    its closed forms (SE(3) for SO(3) x| R^3) are read off that basis.  A
    ``rho`` that does not act by automorphisms leaves no Lie algebra there
    and is a ValueError naming it.
    """

    K: LieGroupSpec
    N: LieGroupSpec
    rho_generators: Array
    name: str = ""
    H: LieGroupSpec = field(init=False, repr=False)
    _inverse_conjugator: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.rho_generators = np.asarray(self.rho_generators, dtype=float).reshape(self.K.dim, self.N.embed, self.N.embed)
        if not np.isfinite(self.rho_generators).all():
            raise ValueError("'rho' generators must be finite")
        if not self.name:
            self.name = f"sd:{self.K.name}|{self.N.name}"
        pad = self.N.embed - self.K.embed
        self._inverse_conjugator = pad >= 0 and np.array_equal(self.rho_generators, np.pad(-self.K.basis, ((0, 0), (0, pad), (0, pad))))
        mk, nk, m = self.K.embed, self.K.dim, self.K.embed + self.N.embed
        basis = np.zeros((nk + self.N.dim, m, m))
        basis[:nk, :mk, :mk] = self.K.basis
        basis[:nk, mk:, mk:] = -self.rho_generators
        basis[nk:, mk:, mk:] = self.N.basis
        try:
            self.H = LieGroupSpec(self.name, len(basis), m, basis)
        except NotClosedError as exc:
            raise ValueError(f"'rho' does not act by automorphisms: the commutators of {self.name} leave its span by {exc.defect:.3g}") from None

    # -- the automorphism family ------------------------------------------------

    def R(self, l: Array) -> Array:
        """The conjugator R(l), one per element of a stack (..., mk, mk)."""
        if self._inverse_conjugator:
            mk = self.K.embed
            out = np.zeros(np.shape(l)[:-2] + self.rho_generators.shape[1:])
            out[..., :mk, :mk] = self.K.inverse(l)
            out[..., mk:, mk:] = np.eye(self.N.embed - mk)
            return out
        return expm(np.tensordot(self.K.log(l), self.rho_generators, axes=1))

    def rho(self, l: Array, u: Array) -> Array:
        """rho(l)(u): conjugation of the embedded N element, R(l) u R(l^-1) with R(l^-1) = R(l)^-1."""
        return self.R(l) @ u @ self.R(self.K.inverse(l))

    def rho_inf(self, l: Array) -> Array:
        """Matrix of the induced algebra action of rho(l) on n-coordinates: x -> R(l) x R(l^-1).

        R(l) is not an element of N, so this is the explicit conjugation, not
        ``N.Ad``, whose closed forms hold on N only.
        """
        return self.N.conjugation(self.R(l), self.R(self.K.inverse(l)))

    # -- group operations in pair coordinates ------------------------------------

    def product(self, a: tuple[Array, Array], b: tuple[Array, Array]) -> tuple[Array, Array]:
        (k, u), (l, w) = a, b
        return k @ l, self.rho(l, u) @ w

    def identity_pair(self) -> tuple[Array, Array]:
        return self.K.identity(), self.N.identity()

    def random_pairs(self, rng: np.random.Generator, lead: tuple[int, ...]) -> tuple[Array, Array]:
        """A stack of random pairs (k, u) of leading shape ``lead``: one block of K coordinates, then
        one block of N coordinates, at scale 0.4, each exponentiated once."""
        return self.pair_at(self.K.random_algebra(rng, 0.4, lead), self.N.random_algebra(rng, 0.4, lead))

    def pair_at(self, k: Array, u: Array) -> tuple[Array, Array]:
        """(exp k, exp u) of algebra coordinates, or of stacks of them."""
        return self.K.exp(k), self.N.exp(u)

    # -- the total group H as a matrix group --------------------------------------

    def embed(self, k: Array, u: Array) -> Array:
        """Psi(k, u) = diag(k, R(k^-1) u), one per pair of the broadcast stacks.

        The N-block rho(k^-1)(u) R(k^-1) collapses because R is an
        anti-homomorphism, so R(k^-1) = R(k)^-1 (in closed form, and as
        exp(r(log k)) inside the log domain of K); k^-1 is ``K.inverse``.
        """
        mk, mn = self.K.embed, self.N.embed
        out = np.zeros(np.broadcast_shapes(np.shape(k)[:-2], np.shape(u)[:-2]) + (mk + mn, mk + mn))
        out[..., :mk, :mk] = k
        out[..., mk:, mk:] = self.R(self.K.inverse(k)) @ u
        return out

    def split(self, h: Array) -> tuple[Array, Array]:
        """Inverse of embed on its image: (k, R(k) h_N), using R(k^-1) = R(k)^-1."""
        mk = self.K.embed
        k = h[..., :mk, :mk]
        return k, self.R(k) @ h[..., mk:, mk:]

    def sigma_dot(self) -> Array:
        """Algebra inclusion of K into H, as an (n_H, n_K) coordinate matrix."""
        return np.eye(self.K.dim + self.N.dim)[:, : self.K.dim]

    def iota_dot(self) -> Array:
        return np.eye(self.K.dim + self.N.dim)[:, self.K.dim :]

    def mu_dot(self) -> Array:
        """Algebra projection of H onto K (derivative of mu(k, u) = k)."""
        return np.eye(self.K.dim + self.N.dim)[: self.K.dim, :]


def so3_r3() -> SemidirectSpec:
    """SO(3) x| R^3 with rho(l)(u) = l^-1 u (conjugator R(l) = diag(l^T, 1))."""
    K, N = so3(), translation_group(3)
    gens = np.zeros((3, 4, 4))
    for i in range(3):
        gens[i, :3, :3] = -K.basis[i]
    return SemidirectSpec(K, N, gens)


def builtin_semidirect(name: str) -> SemidirectSpec:
    if name in ("so3_r3", "sd:so3|r3"):
        return so3_r3()
    raise KeyError(f"unknown builtin semidirect product {name!r}")


def total_bundle(sd: SemidirectSpec) -> BundleSpec:
    """H viewed as a principal N-bundle over K with the section connection."""
    base = GroupBase(sd.K)
    return BundleSpec(sd.N, ConnectionData.flat(sd.K.dim, sd.N.dim), base, name=f"{base.label}[{sd.name}]")


# ---------------------------------------------------------------------------
# the trivialization maps of T*H = T*K x T*N
# ---------------------------------------------------------------------------


def tsigma_matrix(sd: SemidirectSpec, u: Array) -> Array:
    """T Sigma_(k,u) as a matrix on left-trivialized coordinates (xi, nu) -> h-coords, per u of a stack."""
    ad_u = sd.H.Ad_inv(sd.embed(sd.K.identity(), u))
    iota = sd.iota_dot()
    return np.concatenate([ad_u @ sd.sigma_dot(), np.broadcast_to(iota, ad_u.shape[:-2] + iota.shape)], axis=-1)


def tstar_sigma(sd: SemidirectSpec, s: CotangentSample) -> Array:
    """T*Sigma(theta, chi): left-trivialized covector coordinates on T*_h H, per row of a stack."""
    m = tsigma_matrix(sd, s.point.fiber)
    return np.linalg.solve(m.swapaxes(-1, -2), s.coords[..., None])[..., 0]


def tstar_sigma_inverse(sd: SemidirectSpec, k: Array, u: Array, beta: Array) -> CotangentSample:
    m = tsigma_matrix(sd, u)
    cov = row_matvec(m.swapaxes(-1, -2), beta)
    return CotangentSample(Point(k, u), cov[..., : sd.K.dim], cov[..., sd.K.dim :])


def group_momentum(sd: SemidirectSpec, s: CotangentSample) -> tuple[Array, Array]:
    """(T Sigma_e)* o J_H o T*Sigma: the H-momentum pushed to k* x n* coordinates.

    The N-component always equals chi; the K-component picks up a connection
    correction away from u = e (see momentum_suite), so the factorized
    momentum map used downstream is the sample's own (theta, chi), not this
    composite.
    """
    beta = tstar_sigma(sd, s)
    return row_matvec(sd.sigma_dot().T, beta), row_matvec(sd.iota_dot().T, beta)


# ---------------------------------------------------------------------------
# the lifted right action on T*K x T*N
# ---------------------------------------------------------------------------


def lifted_action(sd: SemidirectSpec, s: CotangentSample, g: tuple[Array, Array], beta: Array | None = None) -> CotangentSample:
    """T*R_(l,w) through the trivialization: conjugate the H-side cotangent lift, per row of a stack.

    ``beta`` is ``tstar_sigma(sd, s)`` when the caller has solved it already.
    """
    l, w = g
    k2, u2 = sd.product((s.point.base, s.point.fiber), g)
    beta = tstar_sigma(sd, s) if beta is None else beta
    beta2 = row_matvec(sd.H.Ad_star(sd.embed(l, w)), beta)
    return tstar_sigma_inverse(sd, k2, u2, beta2)


def lifted_action_formula(sd: SemidirectSpec, s: CotangentSample, g: tuple[Array, Array]) -> CotangentSample:
    """The closed form: theta' = theta o TR_{l^-1}, chi' = chi o T[(R_w o rho(l))^{-1}]."""
    l, w = g
    k2 = s.point.base @ l
    u2 = sd.rho(l, s.point.fiber) @ w
    theta2 = row_matvec(sd.K.Ad_star(l), s.a)
    tf = sd.N.Ad_inv(w) @ sd.rho_inf(l)
    chi2 = row_matvec(np.linalg.solve(tf, np.eye(sd.N.dim)).swapaxes(-1, -2), s.b)
    return CotangentSample(Point(k2, u2), theta2, chi2)


def coadjoint_factor_transport(sd: SemidirectSpec, g: tuple[Array, Array]) -> tuple[Array, Array]:
    """The equivariance factor of the momentum map under T*R_(l,w), per pair of a stack.

    Returns matrices (T_K, T_N) with J o T*R_(l,w) = (T_K x T_N) o J, i.e.
    T_K = Ad*_l on k* and T_N = Ad*_w (d rho(l^-1))* on n*.
    """
    l, w = g
    t_k = sd.K.Ad_star(l)
    t_n = sd.N.Ad_star(w) @ sd.rho_inf(sd.K.inverse(l)).swapaxes(-1, -2)
    return t_k, t_n


# ---------------------------------------------------------------------------
# the connection form of the section and the pullback of gamma_H
# ---------------------------------------------------------------------------


def connection_form(sd: SemidirectSpec, k: Array, u: Array, h_velocity: Array) -> Array:
    """alpha(v_h) in n-coordinates via the literal vertical projection, per row of broadcast stacks.

    v_h is given in left-trivialized h-coordinates.  The horizontal projector
    is T(R_{iota(u)} o sigma o mu)(h); the vertical remainder is pulled back
    to N through iota^-1 o L_{sigma(k)^-1}.  Everything is finite-differenced
    on embedded curves, independently of the T Sigma matrix algebra.  Both
    ends of every curve go through one ``H.exp``; each row has the bits of its
    single call.
    """
    h = fd.FINE_STEP
    h0 = sd.embed(k, u)
    # iota^-1 (L_{sigma(k)^-1} ...): N-block after removing sigma(k)
    sk_inv = sd.embed(sd.K.inverse(k), sd.N.identity())
    mk = sd.K.embed
    h_t = h0 @ sd.H.exp(np.multiply.outer([-h, h], h_velocity))  # the curve at -h and +h
    hor_t = sd.embed(h_t[..., :mk, :mk], u)  # R_{iota(u)} sigma mu (h_t) = (k_t, u)
    d_full, d_hor = (fd.quotient(*(sk_inv @ ends)[..., mk:, mk:], h) for ends in (h_t, hor_t))
    return sd.N.to_coords(sd.N.inverse(u) @ (d_full - d_hor), check=False)


def pullback_form_suite(sd: SemidirectSpec, samples: int = 30, seed: int = 0) -> SuiteReport:
    """(T*Sigma)* gamma_H = pr_K* gamma_K + the connection magnetic term."""
    rep = SuiteReport(f"semidirect.pullback_form[{sd.name}]")
    rng = stream(seed, f"semidirect.pullback/{sd.name}")
    h = fd.FINE_STEP
    s1, s2 = 1.7, -0.6
    nk, nn = sd.K.dim, sd.N.dim
    # one block each, in stream order: the pairs (k, u), the covectors (theta, chi) and the base directions (xi, nu)
    k, u = sd.random_pairs(rng, (samples,))
    theta, chi = rng.standard_normal((samples, nk)), rng.standard_normal((samples, nn))
    xi, nu = 0.7 * rng.standard_normal((samples, nk)), 0.7 * rng.standard_normal((samples, nn))
    zero_k, zero_n = np.zeros_like(theta), np.zeros_like(chi)
    # T*Sigma of (theta, chi), of chi = 0, of theta = 0 and of (s1 theta, s2 chi), one stack over the same points
    beta, beta0, beta_n, beta_s = tstar_sigma(sd, CotangentSample(Point(k, u), np.stack([theta, theta, zero_k, s1 * theta]), np.stack([chi, zero_n, chi, s2 * chi])))

    # finite-difference velocities of the base curve along xi alone, and along (xi, nu)
    k_ends = k @ sd.K.exp(np.multiply.outer([-h, h], xi))
    u_ends = u @ sd.N.exp(np.multiply.outer([-h, h], nu))
    ends = sd.embed(np.stack([k_ends, k_ends], axis=1), np.stack([np.broadcast_to(u, u_ends.shape), u_ends], axis=1))
    zeta_k, zeta = fd.group_velocity(sd.H, ends[0], ends[1], h)
    alpha_k, alpha_val = connection_form(sd, k, u, np.stack([zeta_k, zeta]))

    # LHS gamma_H on the velocity; RHS the gamma_K term plus the magnetic term through the connection form
    lhs = row_dot(beta, zeta)
    gamma_k, magnetic = row_dot(theta, xi), row_dot(chi, alpha_val)
    rep.add("pullback_identity", worst(np.abs(lhs - (gamma_k + magnetic))), 1e-8)

    # chi = 0 reduces to the gamma_K pullback
    rep.add("chi_zero_reduces_to_gammaK", worst(np.abs(row_dot(beta0, zeta) - gamma_k)), 1e-8)

    # theta = 0 with a pure K-base direction isolates the magnetic term
    rep.add("magnetic_term_isolated", worst(np.abs(row_dot(beta_n, zeta_k) - row_dot(chi, alpha_k))), 1e-8)

    # linearity: the gamma_K term is linear in theta, the magnetic term in chi
    rep.add("fiberwise_linearity", worst(np.abs(row_dot(beta_s, zeta) - (s1 * gamma_k + s2 * magnetic))), 1e-8)
    rep.extras["trials"] = samples
    return rep


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def spec_suite(sd: SemidirectSpec, samples: int = 30, seed: int = 0) -> SuiteReport:
    """SemidirectSpec invariants: rho automorphisms, anti-homomorphism, products, and exp o log on H."""
    rep = SuiteReport(f"semidirect.spec[{sd.name}]")
    rng = stream(seed, f"semidirect.spec/{sd.name}")
    H = sd.H
    # l, l2 in K and u, w in N at scale 0.5, then three random pairs
    (l, l2), (u, w) = sd.pair_at(sd.K.random_algebra(rng, 0.5, (2, samples)), sd.N.random_algebra(rng, 0.5, (2, samples)))
    pairs = sd.random_pairs(rng, (3, samples))
    a, b, c = zip(*pairs)
    w_auto = row_norm(sd.rho(l, u @ w) - sd.rho(l, u) @ sd.rho(l, w), 2)
    w_anti = row_norm(sd.rho(l @ l2, u) - sd.rho(l2, sd.rho(l, u)), 2)
    w_id = row_norm(sd.rho(sd.K.identity(), u) - u, 2)

    p1 = sd.product(sd.product(a, b), c)
    p2 = sd.product(a, sd.product(b, c))
    w_assoc = row_norm(p1[0] - p2[0], 2) + row_norm(p1[1] - p2[1], 2)

    # the block embedding is multiplicative and splits back
    w_mult = row_norm(sd.embed(*a) @ sd.embed(*b) - sd.embed(*sd.product(a, b)), 2)
    k_back, u_back = sd.split(sd.embed(*a))
    w_split = row_norm(k_back - a[0], 2) + row_norm(u_back - a[1], 2)

    # H's log against its exp on the embedded pairs: an error along N in a closed-form log shows here
    h = sd.embed(*pairs)
    w_log = row_norm(H.exp(H.log(h)) - h, 2)
    rep.add("rho_automorphism", worst(w_auto), 1e-10)
    rep.add("rho_anti_homomorphism", worst(w_anti), 1e-10)
    rep.add("rho_identity", worst(w_id), 1e-10)
    rep.add("associativity", worst(w_assoc), 1e-11)
    rep.add("embedding_multiplicative", worst(w_mult, w_split), 1e-10)
    rep.add("exp_log_roundtrip", worst(w_log), 1e-10)
    rep.extras["trials"] = samples
    return rep


def trivialization_suite(sd: SemidirectSpec, samples: int = 30, seed: int = 0) -> SuiteReport:
    """Round trips of T*Sigma and agreement of the momentum paths."""
    rep = SuiteReport(f"semidirect.trivialization[{sd.name}]")
    rng = stream(seed, f"semidirect.trivialization/{sd.name}")
    k, u = sd.random_pairs(rng, (samples,))
    theta, chi = rng.standard_normal((samples, sd.K.dim)), rng.standard_normal((samples, sd.N.dim))
    s = CotangentSample(Point(k, u), theta, chi)
    back = tstar_sigma_inverse(sd, k, u, tstar_sigma(sd, s))
    w_rt = row_norm(back.a - theta) + row_norm(back.b - chi)

    # Sigma(e, e) = e and T*Sigma(theta, 0) = theta o T mu
    w_sig = row_norm(sd.embed(*sd.identity_pair()) - np.eye(sd.H.embed), 2)
    beta_h = tstar_sigma(sd, CotangentSample(s.point, theta, np.zeros_like(chi)))
    w_mu = row_norm(beta_h - row_matvec(sd.mu_dot().T, theta))

    # N-momentum agreement everywhere; K-momentum agreement at u = e
    _, jn = group_momentum(sd, s)
    w_mn = row_norm(jn - chi)
    jke, jne = group_momentum(sd, CotangentSample(Point(k, np.broadcast_to(sd.N.identity(), u.shape)), theta, chi))
    w_me = row_norm(jke - theta) + row_norm(jne - chi)
    rep.add("tstar_sigma_roundtrip", worst(w_rt), 1e-11)
    rep.add("sigma_identity", worst(w_sig), 1e-10)
    rep.add("chi_zero_is_mu_pullback", worst(w_mu), 1e-10)
    rep.add("n_momentum_matches", worst(w_mn), 1e-10)
    rep.add("k_momentum_matches_at_identity", worst(w_me), 1e-10)
    rep.extras["trials"] = samples
    return rep


def momentum_cross_check_suite(sd: SemidirectSpec, samples: int = 40, seed: int = 0) -> SuiteReport:
    """bundle.momentum on the total space matches the factor momentum J_N."""
    rep = SuiteReport(f"semidirect.momentum_cross_check[{sd.name}]")
    rng = stream(seed, f"semidirect.momentum_cross/{sd.name}")
    b = total_bundle(sd)
    s = b.random_cotangents(rng, (samples,))
    # the factor momentum J_N is the sample's chi = s.b
    jn_group = row_matvec(sd.iota_dot().T, tstar_sigma(sd, s))
    rep.add("J_matches_factor_momentum", worst(row_norm(b.momentum(s) - s.b), row_norm(jn_group - s.b)), 1e-10)
    rep.extras["trials"] = samples
    return rep


def _draw_cotangent(sd: SemidirectSpec, samples: int, rng: np.random.Generator, pairs: int) -> tuple[CotangentSample, list[tuple[Array, Array]]]:
    """Points of T*H (k and u at scale 0.4) with ``pairs`` random pairs each, one row per sample.

    Each variable is drawn once, as a block with one row per sample: the K
    coordinates of the points and of the pairs, their N coordinates, then
    theta and chi.
    """
    (k, *ls), (u, *ws) = sd.random_pairs(rng, (1 + pairs, samples))
    theta, chi = rng.standard_normal((samples, sd.K.dim)), rng.standard_normal((samples, sd.N.dim))
    return CotangentSample(Point(k, u), theta, chi), list(zip(ls, ws))


def action_suite(sd: SemidirectSpec, samples: int = 30, seed: int = 0) -> SuiteReport:
    """Lifted action: closed formula vs conjugated lift, right-action law, identity."""
    rep = SuiteReport(f"semidirect.lifted_action[{sd.name}]")
    rng = stream(seed, f"semidirect.action/{sd.name}")
    b = total_bundle(sd)
    s, (g1, g2) = _draw_cotangent(sd, samples, rng, pairs=2)
    beta = tstar_sigma(sd, s)  # one solve for the three lifts of s
    lifted = lifted_action(sd, s, g1, beta)
    rep.add("closed_formula_matches_lift", worst(b.sample_distance(lifted, lifted_action_formula(sd, s, g1))), 1e-10)
    rep.add("right_action_law", worst(b.sample_distance(lifted_action(sd, lifted, g2), lifted_action(sd, s, sd.product(g1, g2), beta))), 1e-10)
    rep.add("identity_acts_trivially", worst(b.sample_distance(lifted_action(sd, s, sd.identity_pair(), beta), s)), 1e-12)
    rep.extras["trials"] = samples
    return rep


def equivariance_suite(sd: SemidirectSpec, samples: int = 200, seed: int = 0) -> SuiteReport:
    """J o T*R_(l,w) = (Ad*_l x Ad*_w (d rho(l^-1))*) o J, plus the anti-homomorphism law."""
    rep = SuiteReport(f"semidirect.equivariance[{sd.name}]")
    rng = stream(seed, f"semidirect.equivariance/{sd.name}")
    s, (g, g2) = _draw_cotangent(sd, samples, rng, pairs=2)
    # the factorized momentum J = (theta, chi) before and after the lifted action
    moved = lifted_action(sd, s, g)
    t_k, t_n = coadjoint_factor_transport(sd, g)
    rep.add("momentum_equivariance", worst(row_norm(moved.a - row_matvec(t_k, s.a)) + row_norm(moved.b - row_matvec(t_n, s.b))), 1e-9)

    # the transport factors compose contravariantly (anti-homomorphism)
    tk12, tn12 = coadjoint_factor_transport(sd, sd.product(g, g2))
    tk2, tn2 = coadjoint_factor_transport(sd, g2)
    rep.add("transport_anti_homomorphism", worst(row_norm(tk12 - tk2 @ t_k, 2) + row_norm(tn12 - tn2 @ t_n, 2)), 1e-9)
    rep.extras["trials"] = samples
    return rep


# ---------------------------------------------------------------------------
# the reduced dual sequence over K and its leaves
# ---------------------------------------------------------------------------


def reduced_sequence_suite(sd: SemidirectSpec, samples: int = 25, seed: int = 0) -> SuiteReport:
    """0 -> T*K -> T*K x n* -> K x n* -> 0 with a*(theta) = (theta, 0), iota* = (k, chi).

    For abelian N the leaf J^{-1}(a)/N is identified with T*K by the dual of
    the section connection, and the leaf symplectic form is d gamma_K (the
    homomorphic section is flat, so the magnetic one-form A vanishes).
    """
    rep = SuiteReport(f"semidirect.reduced_sequence[{sd.name}]")
    rng = stream(seed, f"semidirect.reduced/{sd.name}")
    nk, nn = sd.K.dim, sd.N.dim

    # exactness from a* and iota* of the total bundle over K; on its gauge slice they do not depend on k
    injective, surjective, composite, image_kernel, ranks = exactness(*dual_atiyah_matrices(total_bundle(sd), sd.K.identity()))
    rep.flag("first_map_injective", injective)
    rep.flag("second_map_surjective", surjective)
    rep.add("composite_zero", composite, 1e-11)
    rep.add("image_equals_kernel", image_kernel, 1e-10)
    rep.extras["rank_table"] = ranks

    if sd.N.abelian:
        a_char = rng.standard_normal(nn)
        # one block each, in stream order: the pairs (k, u), theta, the N-elements w at scale 0.5, and xi1, xi2, dth1, dth2
        k, u = sd.random_pairs(rng, (samples,))
        theta, w = rng.standard_normal((samples, nk)), sd.N.exp(sd.N.random_algebra(rng, 0.5, (samples,)))
        xi1, xi2, dth1, dth2 = rng.standard_normal((4, samples, nk))
        chi = np.broadcast_to(a_char, (samples, nn))

        # [Gamma*] is N-invariant and returns the theta coordinates
        moved = lifted_action(sd, CotangentSample(Point(k, u), theta, chi), (sd.K.identity(), w))
        rep.add("gamma_star_n_invariant", worst(row_norm(moved.a - theta), row_norm(moved.point.base - k, 2)), 1e-10)

        # omega_a = d(gamma_K + (pi_K*)A) with A = 0 for the homomorphic
        # section: compare the leaf form against d gamma_K on the slice u = e
        zero = np.zeros_like(chi)
        v1 = np.concatenate([xi1, zero, dth1, zero], axis=-1)
        v2 = np.concatenate([xi2, zero, dth2, zero], axis=-1)
        leaf_val = _product_dgamma_fd([sd.K, sd.N], np.concatenate([theta, chi], axis=-1), v1, v2)
        k_only = row_form(np.concatenate([xi1, dth1], axis=-1), canonical_two_form([sd.K], theta), np.concatenate([xi2, dth2], axis=-1))
        rep.add("omega_a_equals_dgamma_K", worst(np.abs(leaf_val - k_only)), 1e-7)
    else:
        rep.extras["leaf_check"] = "skipped: N is not abelian"
    rep.extras["trials"] = samples
    return rep


def momentum_form_suite(sd: SemidirectSpec, samples: int = 20, seed: int = 0) -> SuiteReport:
    """Momentum maps generate the lifted action for d(gamma_K + gamma_N).

    For each algebra element X the contraction identity
    xi^X _| d gamma = -d <J, X> is checked under finite differences, with
    xi^X the generator of the lifted right action.  The Hamiltonian momentum
    of the full H-action is the trivialized group momentum <beta, X>; the
    factored map (theta, chi) satisfies the identity on the normal-subgroup
    generators (and everywhere on the identity slice u = e, where the two
    maps coincide).
    """
    rep = SuiteReport(f"semidirect.momentum_form[{sd.name}]")
    rng = stream(seed, f"semidirect.momentum_form/{sd.name}")
    b = total_bundle(sd)
    nk, nn = sd.K.dim, sd.N.dim
    h = fd.GRAD_STEP
    ends = np.array([-h, h])

    # before the covectors: the algebra elements x_k, x_n and a tangent v of each sample
    x_k, x_n = 0.7 * rng.standard_normal((samples, nk)), 0.7 * rng.standard_normal((samples, nn))
    v = rng.standard_normal((samples, 2 * (nk + nn)))
    s, _ = _draw_cotangent(sd, samples, rng, pairs=0)
    x_hn = row_matvec(sd.iota_dot(), x_n)
    x_h = row_matvec(sd.sigma_dot(), x_k) + x_hn
    # the covector moved along v to -h and +h
    s_ends = b.moved(s, ends[:, None, None] * v)

    # generators of the lifted action for x_hn and x_h: their flows at -h and +h through one lifted_action
    flows = lifted_action(sd, s, sd.split(sd.H.exp(np.multiply.outer(ends, np.stack([x_hn, x_h])))))
    gen_n, gen_h = _tangent(b, flows, h)
    omega = canonical_two_form([sd.K, sd.N], s.coords)

    # full H generator against the group momentum <beta, X>
    djx = fd.quotient(*row_dot(tstar_sigma(sd, s_ends), x_h), h)
    rep.add("contraction_identity_group_momentum", worst(np.abs(row_form(gen_h, omega, v) + djx)), 1e-6)

    # normal-subgroup generator against the factored component J_N = chi
    djn = fd.quotient(*row_dot(s_ends.b, x_n), h)
    rep.add("contraction_identity_factored_n_component", worst(np.abs(row_form(gen_n, omega, v) + djn)), 1e-6)
    rep.extras["trials"] = samples
    return rep


def _tangent(b: BundleSpec, ends: CotangentSample, h: float) -> Array:
    """Left-trivialized tangent (xi, nu, dtheta, dchi) of T*H from the samples at -h and +h, the first axis of every field, per row of stacks."""
    xi = b.base.velocity(*ends.point.base, h)
    nu = fd.group_velocity(b.group, *ends.point.fiber, h)
    return np.concatenate([xi, nu, fd.quotient(*ends.a, h), fd.quotient(*ends.b, h)], axis=-1)


def _product_dgamma_fd(factors: Sequence[LieGroupSpec], covector: Array, v1: Array, v2: Array) -> float | Array:
    """d gamma on T*(G_1 x ... x G_r) in left-trivialized coordinates, by FD in exp charts, per row of stacks.

    The finite-difference oracle for ``canonical_two_form``, with the same
    factors, covector and tangent layout (velocities | covector changes).  The
    charts are centered at the evaluation point, so chart directions at the
    center are the left-trivialized tangents.  A float for one covector.
    """
    dims = [f.dim for f in factors]
    cuts, dim = np.cumsum(dims)[:-1], sum(dims)

    def gamma_at(z: Array, v: Array) -> Array:
        parts = zip(factors, *(np.split(x, cuts, axis=-1) for x in (z[..., :dim], v[..., :dim], z[..., dim:])))
        return sum(row_dot(mu, dexp_left(f, x, dx)) for f, x, dx, mu in parts)

    z0 = np.concatenate([np.zeros(np.shape(covector)[:-1] + (dim,)), covector], axis=-1)
    # d_v1 gamma(v2) and d_v2 gamma(v1) in one central difference: the points moved along v1, v2 (minus, then plus) pair with v2, v1
    paired = np.stack([v2, v1, v2, v1])
    t1, t2 = fd.central(lambda z: gamma_at(z, paired), z0, np.stack([v1, v2]), fd.GRAD_STEP)
    out = t1 - t2
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# the heavy top
# ---------------------------------------------------------------------------


@dataclass
class HeavyTopModel:
    """Lie-Poisson phase space and Hamiltonian of a heavy top."""

    space: "object"
    hamiltonian: ScalarField
    casimirs: list[ScalarField]
    inertia: Array
    mgl: float
    axis: Array

    def monitors(self) -> dict[str, ScalarField]:
        """The conserved quantities a simulation tracks, each one formula for a point or a stack of states.

        Energy and both Casimirs always; Pi3 for a symmetric top whose axis is
        the third body axis (Lagrange top); |Pi|^2 when there is no gravity.
        """
        out = {"energy": self.hamiltonian}
        for c in self.casimirs:
            out[c.name] = c
        if self.inertia[0] == self.inertia[1] and np.allclose(self.axis, [0, 0, 1]):
            out["Pi3"] = coordinate_field(2, 6)
        if self.mgl == 0.0:
            out["|Pi|^2"] = ScalarField(lambda x: row_dot(x[..., :3], x[..., :3]), lambda x: np.concatenate([2 * x[..., :3], np.zeros_like(x[..., 3:])], axis=-1))
        return out


def heavy_top_model(inertia, mgl: float, axis) -> HeavyTopModel:
    """Heavy top on the coalgebra of SO(3) x| R^3: H = T/2 + mgl <Gamma, axis>.

    The bracket is the generic Lie-Poisson evaluator over the structure
    constants of the assembled semidirect algebra; nothing is hand-coded. The
    Hamiltonian declares its affine gradient, from which its ``grad`` and the
    compiled RK4 step of ``dynamics.integrate`` are built.  The Hamiltonian, the
    Casimirs and their gradients take a point or a stack of states, one row per state.
    """
    inertia = np.asarray(inertia, dtype=float)
    axis = np.asarray(axis, dtype=float)
    if inertia.shape != (3,) or np.any(inertia <= 0):
        raise ValueError("inertia must be three positive moments")
    space = lie_poisson(so3_r3().H)

    inv_i = 1.0 / inertia
    # grad H = A x + f: dH/dPi = Pi / I, and dH/dGamma = mgl * axis is constant
    affine = (np.diag(np.concatenate([inv_i, np.zeros(3)])), np.concatenate([np.zeros(3), mgl * axis]))

    def ham(x: Array) -> float | Array:
        pi, gam = x[..., :3], x[..., 3:]
        return row_dot(0.5 * pi, inv_i * pi) + mgl * row_dot(gam, axis)

    # the two Casimirs that poisson.casimir_fields derives for so3 x| r3, named
    casimirs = [
        ScalarField(lambda x: row_dot(x[..., 3:], x[..., 3:]), lambda x: np.concatenate([np.zeros_like(x[..., :3]), 2.0 * x[..., 3:]], axis=-1), name="|Gamma|^2"),
        ScalarField(lambda x: row_dot(x[..., :3], x[..., 3:]), lambda x: np.concatenate([x[..., 3:], x[..., :3]], axis=-1), name="<Pi,Gamma>"),
    ]
    hamiltonian = ScalarField(ham, name="heavy_top", affine=affine)
    return HeavyTopModel(space, hamiltonian, casimirs, inertia, float(mgl), axis)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def sd_from_json(doc: dict, group_resolver: Callable[[Any], LieGroupSpec]) -> SemidirectSpec:
    """A semidirect product from ``{"K", "N", "rho"}``; ``group_resolver`` reads ``K`` and ``N``."""
    K, N = group_resolver(doc.get("K")), group_resolver(doc.get("N"))
    return SemidirectSpec(K, N, schema.array("rho", doc.get("rho"), (K.dim, N.embed, N.embed)))
