"""Conditional expectations onto *-subalgebras of M_n.

An expectation is stored as its matrix on flattened (row-major) coordinates.
The constructor composes it with the orthogonal projection onto the domain
algebra and keeps its values E(x_j) on the domain's orthonormal basis, so the
stored map is defined on all of M_n.  Unitality on the range unit,
idempotence, positivity and range membership are checked through those
values, and the D-bimodule property (linalg.bimodule_gaps) through the
stored map read as the 4-tensor of its entries: E∘L_d, L_d∘E, E∘R_d and
R_d∘E, with L_d, R_d left and right multiplication by a basis element d of
D, are mode products, one gemm of inner dimension n per chunk of D's basis.
No n^2 x n^2 multiplication or complement operator is formed.

One builder, _preserving_expectation, solves the Gram system of the range
algebra in the omega-inner product.  That needs omega faithful on the range
only, which states._faithful_spectrum decides on the Gram matrix it inverts;
a functional singular on the range is handled by compressing to the support
of its restriction there (support_ideal_expectation), never by regularizing.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .algebras import StarAlgebra, commutant, from_spanning, full_matrix_algebra
from .config import tol
from .errors import (
    DensityDoesNotCommute,
    DoesNotCommute,
    GramSingular,
    InvariantViolation,
    NcrepError,
    NotAnExtension,
    NotCentral,
    NotDCentral,
    NotFaithful,
    NotNormalized,
    NotPositiveDefinite,
    SupportNotCentral,
    cross_check,
)
from .linalg import (
    Corner,
    apply_map,
    as_matrix,
    bimodule_gaps,
    commutation_gap,
    commutator,
    dagger,
    eigh_hermitian,
    hs_norm,
    hs_norms,
    orthonormalize,
    pd_tol,
    projection_isometry,
    psd_sqrt,
    require_finite,
    sandwich_matrix,
)
from .states import (
    PositiveFunctional,
    _faithful_spectrum,
    _locally_central,
    _omega_gram,
    _support_commutes,
    is_D_central,
    modular_invariance_check,
    pt_radon_nikodym,
    require_same_ambient,
    tracial_certificate,
)


@functools.lru_cache(maxsize=64)
def _positivity_probes(n):
    """Fixed random draws x as their x*x and squared norms, reused across validations."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, n, n)) + 1j * rng.standard_normal((8, n, n))
    xx = np.einsum("aji,ajk->aik", np.conj(x), x)
    norms = np.einsum("aij,aij->a", np.conj(x), x).real
    xx.flags.writeable = norms.flags.writeable = False
    return xx, norms


def _pullback_density(map_matrix, rho):
    """Density of x -> Tr(rho E(x)): the adjoint of E under the trace pairing."""
    n = rho.shape[0]
    sigma_t = (map_matrix.T @ rho.T.ravel()).reshape(n, n)
    sigma = sigma_t.T
    return (sigma + dagger(sigma)) / 2


def _domain_images(map_matrix, domain):
    """The map's values K(x_j) on the domain's orthonormal basis, as flat rows,
    and its matrix composed with the projection onto the domain, sum_j K(x_j) x_j*."""
    flat = domain.space.flat
    images = flat @ require_finite(np.asarray(map_matrix, dtype=complex)).T
    return images, images.T @ flat.conj()


def _check_preserves(map_matrix, omega, target):
    """omega∘E must have the density target (omega's own on the domain)."""
    drift = hs_norm(_pullback_density(map_matrix, omega.density) - target)
    if drift > tol(1e-8) * max(1.0, hs_norm(omega.density)):
        raise InvariantViolation(f"preservation: omega∘E deviates from omega by {drift:.3e}")


class ConditionalExpectation:
    """Idempotent positive bimodule map from a *-algebra onto a range inside it.

    The range is an operator subspace with its own unit: the ambient identity
    for genuine expectations, a projection z for the support-ideal maps onto
    Dz.  The bimodule algebra is the D whose elements pass through the map.

    The constructor composes map_matrix with the projection onto the domain
    and keeps the values E(x_j) on the domain's orthonormal basis as the rows
    of images; validated turns true once validate() has passed.
    """

    def __init__(self, map_matrix, domain, range_space, unit, bimodule, check=True):
        self.images, self.map_matrix = _domain_images(map_matrix, domain)
        self.domain = domain
        self.range_space = range_space
        self.unit = as_matrix(unit)
        self.bimodule = bimodule
        self.n = domain.n
        self.validated = False
        if check:
            self.validate()

    def __call__(self, x):
        return apply_map(self.map_matrix, as_matrix(x))

    def pullback(self, functional):
        """The functional x -> functional(E(x)) as a PositiveFunctional."""
        return PositiveFunctional(_pullback_density(self.map_matrix, functional.density))

    @functools.cached_property
    def support(self):
        return support_of_map(self)

    def validate(self):
        k, images = self.map_matrix, self.images
        n = self.n
        scale = max(1.0, hs_norm(k))
        unit_gap = hs_norm(apply_map(k, np.eye(n)) - self.unit)
        if unit_gap > tol(1e-9) * max(1.0, hs_norm(self.unit)):
            raise InvariantViolation(f"unital: E(I) misses the range unit by {unit_gap:.3e}")
        # the rows E(E(x_j)) - E(x_j) have the norm of k^2 - k, because k = kP
        idem_gap = hs_norm(images @ k.T - images)
        if idem_gap > tol(1e-9) * scale:
            raise InvariantViolation(f"idempotent: E(E(x)) != E(x), defect {idem_gap:.3e}")
        xx, x_norms = _positivity_probes(n)
        y = apply_map(k, xx)
        y = (y + dagger(y)) / 2
        lows = np.linalg.eigvalsh(y)[:, 0]
        if np.any(lows < -tol(1e-8) * x_norms):
            raise InvariantViolation(f"positive: E(x*x) has eigenvalue {lows.min():.3e}")
        gaps = bimodule_gaps(k, self.bimodule.space.tensor)
        if np.any(gaps > tol(1e-8) * scale * np.sqrt(n)):
            raise InvariantViolation(f"bimodule: module property fails by {gaps.max():.3e}")
        range_gap = hs_norm(self.range_space.residuals(images))
        if range_gap > tol(1e-8) * scale:
            raise InvariantViolation(f"range: output leaves the range span by {range_gap:.3e}")
        self.validated = True


def choi_matrix(e):
    """Choi matrix of the map; positive semidefinite iff completely positive."""
    k = e.map_matrix if isinstance(e, ConditionalExpectation) else np.asarray(e, dtype=complex)
    n = int(round(np.sqrt(k.shape[0])))
    return k.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)


def preserving_expectation(omega, d, m):
    """The omega-preserving conditional expectation of M onto D.

    Needs omega central for D and faithful on D.  The Gram system
    omega(b* E(x)) = omega(b* x) over a basis b of D then has exactly one
    solution, whether or not omega is faithful on M, and that solution is
    the expectation.
    """
    ok, violation = is_D_central(omega, d, m)
    if not ok:
        raise NotDCentral(f"omega is not D-central (violation {violation:.3e})")
    try:
        return _preserving_expectation(omega, d, m)
    except GramSingular as err:  # this entry point names D in its message
        raise GramSingular("omega is not faithful on D") from err


def _gram_solve(omega, space):
    """The map k onto the space with omega(b* k(x)) = omega(b* x) for b in it: one eigh of the
    Gram matrix omega(b_a* b_c) feeds _faithful_spectrum (GramSingular if not faithful) and the inverse."""
    gram, rows = _omega_gram(omega, space.tensor)
    eigs, u = np.linalg.eigh(gram)
    if not _faithful_spectrum(eigs):
        raise GramSingular(
            f"functional is not faithful on the span (Gram eigenvalues {eigs[0]:.3e}..{eigs[-1]:.3e})"
        )
    return space.flat.T @ (((u / eigs) @ dagger(u)) @ rows)


def _preserving_expectation(omega, target, m, check=True):
    """The one builder: the omega-orthogonal projection of M onto the target subalgebra.

    Solves the target's Gram system (_gram_solve), builds the map, validates
    it and checks that it preserves omega.  The D-centrality gate is
    preserving_expectation's; without it, validation decides whether the
    solution is an expectation (exactly when the modular flow of omega leaves
    the target invariant).  check=False skips the validation for a caller
    that validates what it makes of the map; the other checks always run.
    """
    e = ConditionalExpectation(_gram_solve(omega, target.space), m, target.space, np.eye(m.n), target, check)
    _check_preserves(e.map_matrix, omega, omega.restricted_density(m))
    return e


def expectation_from_density(h, d, m, nu):
    """E(x) = E_D(h^{1/2} x h^{1/2}) for a positive h commuting with D and rho_nu,
    normalized by E_D(h) = I, where E_D is the nu-preserving expectation onto D."""
    h = as_matrix(h)
    h_spec = eigh_hermitian(h)
    h_scale = h_spec.norm
    if h_spec.eigenvalues[0] < -pd_tol(max(h_scale, 1e-30)):
        raise NotPositiveDefinite(f"density must be positive semidefinite (min eig {h_spec.eigenvalues[0]:.3e})")
    if not m.contains(h):
        raise InvariantViolation("density must lie in the algebra")
    gap = commutation_gap(h, d.space.tensor)
    if gap > tol(1e-9) * max(1.0, h_scale):
        raise DensityDoesNotCommute(f"[h, D] = {gap:.3e}")
    gap = hs_norm(commutator(h, nu.density))
    if gap > tol(1e-9) * max(1.0, h_scale * hs_norm(nu.density)):
        raise DensityDoesNotCommute(f"[h, rho_nu] = {gap:.3e}")
    e_d = preserving_expectation(nu, d, m)
    norm_gap = hs_norm(e_d(h) - np.eye(m.n))
    if norm_gap > tol(1e-8) * np.sqrt(m.n):
        raise NotNormalized(f"E_D(h) differs from the identity by {norm_gap:.3e}")
    hr = psd_sqrt(h)
    e = ConditionalExpectation(e_d.map_matrix @ sandwich_matrix(hr, hr), m, d.space, np.eye(m.n), d)
    sigma = _pullback_density(e.map_matrix, nu.density)
    want = m.project(hr @ nu.density @ hr)
    if hs_norm(sigma - want) > tol(1e-8) * max(1.0, hs_norm(want)):
        raise InvariantViolation("nu∘E does not match the h-deformed functional")
    return e


def _modular_gaps(e, nu):
    """The statistics of commutes_with_modular, read off the domain's basis x_j.

    ||E([log rho, x_j]) - [log rho, E(x_j)]||, which is ||(K ad - ad K) P||_F;
    ||ad||_F from the eigenvalues of rho; the largest ||E(u x_j u*) - u E(x_j) u*||
    and ||P(u* sigma u) - sigma|| over u = rho^(it) at the sampled times, where
    sigma, returned last, is the density of nu∘E and P(u* sigma u) that of
    x -> nu(E(u P(x) u*)) on a *-algebra domain.
    """
    k = e.map_matrix
    x = e.domain.space.tensor
    y = e.images.reshape(x.shape)
    v = nu.spectrum.eigenvectors
    log_eigs = np.log(nu.spectrum.eigenvalues)
    log_rho = nu.spectrum.apply(np.log)
    inf_stat = hs_norm(apply_map(k, commutator(log_rho, x)) - commutator(log_rho, y))
    ad_norm = hs_norm(log_eigs[:, None] - log_eigs[None, :])
    sigma = _pullback_density(k, nu.density)
    # u = rho^(it) at the three sampled times, stacked; the map sees one time at a
    # time, so that no more than one image stack of the domain basis is held
    u = (v * np.exp(1j * np.array([0.1, 1.0, np.sqrt(2.0)])[:, None] * log_eigs)[:, None]) @ dagger(v)
    u_star = dagger(u)
    sampled_map = max(hs_norm(apply_map(k, w @ x @ w_star) - w @ y @ w_star) for w, w_star in zip(u, u_star))
    # P(u* sigma u) for the three u from one pairing with the domain's rows
    moved = (u_star @ sigma @ u).reshape(3, -1)
    flat = e.domain.space.flat
    sampled_pull = float(hs_norms((moved @ flat.conj().T) @ flat - sigma.ravel()).max())
    return inf_stat, ad_norm, sampled_map, sampled_pull, sigma


def commutes_with_modular(e, nu):
    """Does E commute with the modular flow of nu?

    Three routes: commutation of the maps at sampled times, the infinitesimal
    commutator with ad(log rho), and invariance of nu∘E under the flow.  The
    infinitesimal route decides and must agree with the sampled one; the
    invariance route is only implied by commutation (nu∘E can carry extra
    symmetry of its own, e.g. when it collapses to the trace), so it is
    checked in that direction alone.
    """
    if not nu.is_faithful:
        raise NotFaithful("modular commutation needs a faithful reference")
    inf_stat, ad_norm, sampled_map, sampled_pull, sigma = _modular_gaps(e, nu)
    scale = max(1.0, hs_norm(e.map_matrix))
    inf_thr = tol(1e-8) * scale * max(1.0, ad_norm)
    map_thr = tol(1e-8) * scale
    pull_thr = tol(1e-8) * max(1.0, hs_norm(sigma))
    verdict = cross_check(
        "infinitesimal and sampled modular commutation disagree", inf_stat <= inf_thr,
        sampled_map <= map_thr, (inf_stat, inf_thr), (sampled_map, map_thr),
    )
    if verdict:  # commutation implies invariance of nu∘E, not the other way round
        cross_check("the flow commutes with the map yet moves nu∘E", True, sampled_pull <= pull_thr,
                    (sampled_pull, pull_thr))
    return verdict


def expectation_to_density(e, nu):
    """Radon-Nikodym density of nu∘E against nu; exists when E commutes with the flow."""
    if not commutes_with_modular(e, nu):
        raise DoesNotCommute("expectation does not commute with the modular flow of nu")
    h = pt_radon_nikodym(e.pullback(nu), nu)
    gap = commutation_gap(h, e.bimodule.space.tensor)
    if gap > tol(1e-8) * max(1.0, hs_norm(h)):
        raise InvariantViolation(f"derivative does not commute with D ({gap:.3e})")
    return h


def _values_on(functional, rows):
    """The functional on each flattened matrix x in rows (k, n^2): Tr(rho x) = <vec(x), vec(rho^T)>."""
    return rows @ functional.density.T.ravel()


def average_to_central(psi, omega, d, m):
    """Replace a state extension psi of omega|D by a D-central one.

    Pushes psi through the omega-preserving projection onto the relative
    commutant of D; the result still extends omega|D and is D-central, and
    commutation with omega (of the densities restricted to M) is inherited.
    """
    if omega.is_faithful:  # else _average_to_central raises NotFaithful, which takes precedence
        ok, violation = is_D_central(omega, d, m)
        if not ok:
            raise NotCentral(f"D is not inside the centralizer of omega (violation {violation:.3e})")
    return _average_to_central(psi, omega, d, m)


def _average_to_central(psi, omega, d, m):
    """average_to_central past its D-centrality gate, which the caller settled."""
    if not omega.is_faithful:
        raise NotFaithful("averaging needs a faithful reference functional")
    want = _values_on(omega, d.space.flat)
    if np.any(np.abs(_values_on(psi, d.space.flat) - want) > tol(1e-8) * np.maximum(1.0, np.abs(want))):
        raise NotAnExtension("psi does not restrict to omega on D")
    e = _preserving_expectation(omega, commutant(d, m), m)
    result = e.pullback(psi)
    if np.any(np.abs(_values_on(result, d.space.flat) - want) > tol(1e-7) * np.maximum(1.0, np.abs(want))):
        raise InvariantViolation("averaged functional no longer extends omega on D")
    ok, violation = is_D_central(result, d, m)
    if not ok:
        raise InvariantViolation(f"averaged functional is not D-central (violation {violation:.3e})")
    r_psi = psi.restricted_density(m)
    r_omega = omega.restricted_density(m)
    pair_scale = max(1e-30, hs_norm(r_psi) * hs_norm(r_omega))
    if hs_norm(commutator(r_psi, r_omega)) <= tol(1e-9) * pair_scale:
        inherited = hs_norm(commutator(result.restricted_density(m), r_omega))
        if inherited > tol(1e-7) * pair_scale:
            raise InvariantViolation(f"commutation with omega was not inherited ({inherited:.3e})")
    return result


def _support_gaps(k, images, domain, z):
    """||E(x_j) - E(z x_j z)|| and ||z E(x_j) - E(x_j) z|| over the domain's basis x_j:
    ||(K - K S_z) P||_F and ||(L_z - R_z) K P||_F for S_z, L_z, R_z the
    matrices of x -> zxz, zx, xz and P the domain projection."""
    x = domain.space.tensor
    y = images.reshape(x.shape)
    return hs_norm(y - apply_map(k, z @ x @ z)), hs_norm(z @ y - y @ z)


def support_of_map(e):
    """Smallest projection z with E(x) = E(zxz); support of the trace pullback.

    Accepts a ConditionalExpectation or a raw map matrix on all of M_n.  For
    idempotent maps the support also commutes with every output.  A validated
    expectation is idempotent; any other map is tested for it first.
    """
    if isinstance(e, ConditionalExpectation):
        k, images, dom, idempotent = e.map_matrix, e.images, e.domain, e.validated
    else:
        k = np.asarray(e, dtype=complex)
        dom = full_matrix_algebra(int(round(np.sqrt(k.shape[0]))))
        images, idempotent = dom.space.flat @ k.T, False
    w = _pullback_density(k, np.eye(dom.n, dtype=complex))
    w_spec = eigh_hermitian(w)
    z = w_spec.support(pd_tol(w_spec.norm))
    scale = max(1.0, hs_norm(k))
    gap, side = _support_gaps(k, images, dom, z)
    if gap > tol(1e-8) * scale:
        raise InvariantViolation(f"support identity E(x) = E(zxz) fails by {gap:.3e}")
    if idempotent or hs_norm(images @ k.T - images) <= tol(1e-6) * scale:
        if side > tol(1e-8) * scale:
            raise InvariantViolation(f"support does not commute with the outputs ({side:.3e})")
    return z


def support_ideal_expectation(omega, d, m):
    """Expectation onto the ideal Dz, z the support of omega|D, for omega not
    faithful on D.  Compress to z, build the preserving expectation there,
    and lift; the result is the unique omega-preserving D-module map with
    support below z, which a second, direct Gram construction confirms.
    The compressed functional is faithful on Dz but may still be singular
    on zMz; the Gram system on Dz determines the compressed map all the
    same.  EmptyInput when omega vanishes on D, so that z = 0.

    Checks on the returned map: omega is D-central, z is central in D,
    omega is faithful on Dz, the full ConditionalExpectation validation
    (unit z, idempotence, positivity, D-bimodule, range Dz), preservation of
    omega, agreement with the direct Gram route, and support below z.  The
    compressed algebras zMz and Dz, the compressed functional and the
    compressed expectation are not validated on their own, because the
    checks above imply their invariants: z lies in D inside M, so zMz is a
    *-algebra, and z is central in D, so Dz is one; the compressed density
    is positive because omega's is; omega(1 - z) = 0 puts the density in
    zMz, so D-centrality of omega gives centrality of the compressed
    functional; and the corner's lift x -> v x v*, an isometry, carries
    each invariant of the compressed map to the same invariant of the
    returned one, which its validation checks.
    """
    ok, violation = is_D_central(omega, d, m)
    if not ok:
        raise NotDCentral(f"omega is not D-central (violation {violation:.3e})")
    corner = Corner(omega.support_isometry_in(d))
    z = corner.projection
    gap = commutation_gap(z, d.space.tensor)
    if gap > tol(1e-9) * max(1.0, hs_norm(z)):
        raise SupportNotCentral(f"support of omega|D is not central in D ([z,d] = {gap:.3e})")
    m_z = StarAlgebra(orthonormalize(corner.compress_rows(m.space.flat)), check=False)
    d_z = StarAlgebra(orthonormalize(corner.compress_rows(d.space.flat)), check=False)
    omega_z = PositiveFunctional(corner.compress(omega.density), check=False)
    f = _preserving_expectation(omega_z, d_z, m_z, check=False)
    # xz = v (v* x v) v* for x in D
    range_space = corner.lift_space(d_z.space)
    e = ConditionalExpectation(corner.lift_map(f.map_matrix), m, range_space, z, d)
    _check_preserves(e.map_matrix, omega, omega.restricted_density(m))
    # uniqueness: an independent Gram solve on the ideal must take the same values on M
    mismatch = hs_norm(e.images - m.space.flat @ _gram_solve(omega, range_space).T)
    if mismatch > tol(1e-7) * max(1.0, hs_norm(e.map_matrix)):
        raise InvariantViolation(f"the two support-ideal constructions disagree by {mismatch:.3e}")
    support = support_of_map(e)
    if hs_norm(support @ z - support) > tol(1e-8):
        raise InvariantViolation("map support is not dominated by the ideal support")
    e.support = support
    return e


@dataclass
class ExistenceReport:
    faithful_on_D: bool
    tracial_on_D: bool
    central: bool
    locally_central: bool
    support_commutes: bool
    modular_invariant: bool
    constructed: bool
    equivalences_hold: bool
    central_violation: float
    failure: str | None
    expectation: object | None


def existence_diagnosis(omega, d, m):
    """Probe every existence criterion for an omega-preserving expectation onto D.

    Reports the individual verdicts plus whether the expected equivalences
    between them actually held on this instance.  Each probe runs once, and
    faithfulness on D is the construction's own Gram test.  A probe that fails
    with an NcrepError or a LinAlgError counts as a negative verdict, and the
    construction's failure is reported by name; any other exception is a
    programming error and propagates.  omega, D and M of different sizes
    raise DimensionMismatch before any probe runs.
    """
    require_same_ambient(omega, d, m)

    def guarded(fn, default=False):
        try:
            return fn(), None
        except (NcrepError, np.linalg.LinAlgError) as err:  # diagnosis reports, it does not fail
            return default, err

    tracial_d, _ = guarded(lambda: tracial_certificate(omega, d).result)
    (central, central_violation), central_err = guarded(lambda: is_D_central(omega, d, m), (False, float("nan")))
    support_commutes, support_err = guarded(lambda: _support_commutes(omega, d))
    # the local check compares with both probes, so it fails when either did
    local, _ = guarded(lambda: central_err is None and support_err is None and _locally_central(
        omega, d, m, 16, central, central_violation, support_commutes))

    def modular_probe():
        if omega.is_faithful:
            return modular_invariance_check(omega, d)
        if not support_commutes:
            return False
        corner = Corner(projection_isometry(omega.support))
        d_c = from_spanning(corner.compress(d.space.tensor))
        return modular_invariance_check(PositiveFunctional(corner.compress(omega.density)), d_c)

    modular_invariant, _ = guarded(modular_probe)
    expectation, err = guarded(lambda: _preserving_expectation(omega, d, m), default=None)
    constructed = expectation is not None
    faithful_d = not isinstance(err, GramSingular)  # the build's Gram test on D decides
    eq_construct = constructed and tracial_d and faithful_d
    eq_central = central and faithful_d
    eq_local = local and tracial_d and faithful_d and support_commutes
    return ExistenceReport(
        faithful_on_D=bool(faithful_d),
        tracial_on_D=bool(tracial_d),
        central=bool(central),
        locally_central=bool(local),
        support_commutes=bool(support_commutes),
        modular_invariant=bool(modular_invariant),
        constructed=constructed,
        equivalences_hold=bool(eq_construct == eq_central == eq_local),
        central_violation=central_violation,
        failure=None if err is None else f"{type(err).__name__}: {err}",
        expectation=expectation,
    )
