"""Positive functionals on M_n as densities: supports, centralizers, modular flow,
and the finite-dimensional Radon-Nikodym correspondence for commuting functionals.

A functional is omega(x) = Tr(rho x) with rho positive semidefinite.  Nothing
here regularizes a singular density; non-faithful functionals are handled by
compressing to the support projection.
"""

from dataclasses import dataclass

import numpy as np

from .algebras import commutant, from_spanning
from .config import tol
from .errors import (
    DoesNotCommute,
    InvariantViolation,
    NotFaithful,
    NotHermitian,
    NotPositiveDefinite,
    cross_check,
)
from .linalg import (
    Corner,
    as_matrix,
    commutation_gap,
    commutator,
    dagger,
    eigh_hermitian,
    hermitian_part_spectrum,
    hs_norm,
    is_hermitian,
    orthonormalize,
    pd_tol,
    projection_isometry,
    psd_sqrt,
    same_subspace,
)


class PositiveFunctional:
    """omega(x) = Tr(rho x) for positive semidefinite rho."""

    def __init__(self, density, check=True):
        self.density = as_matrix(density)
        self.n = self.density.shape[0]
        self._spectrum = None
        self._support = None
        if check:
            self.validate()

    @classmethod
    def tracial(cls, n):
        return cls(np.eye(n, dtype=complex) / n, check=False)

    def __call__(self, x):
        return complex(np.einsum("ij,ji->", self.density, np.asarray(x, dtype=complex)))

    @property
    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = hermitian_part_spectrum(self.density)
        return self._spectrum

    def validate(self):
        scale = float(np.linalg.norm(self.density, 2))
        if not is_hermitian(self.density, tol(1e-10) * max(1.0, scale)):
            raise NotHermitian("density must be Hermitian")
        low = self.spectrum.eigenvalues[0] if self.n else 0.0
        if low < -tol(1e-10) * max(1.0, scale):
            raise NotPositiveDefinite(f"density has negative eigenvalue {low:.3e}")

    @property
    def trace(self):
        return float(np.trace(self.density).real)

    @property
    def is_state(self):
        return abs(self.trace - 1.0) <= tol(1e-10)

    @property
    def is_faithful(self):
        eigs = self.spectrum.eigenvalues
        return bool(eigs.size and eigs[0] > pd_tol(float(eigs[-1])))

    @property
    def support(self):
        if self._support is None:
            cutoff = pd_tol(float(self.spectrum.eigenvalues[-1])) if self.n else 0.0
            self._support = self.spectrum.support(cutoff)
        return self._support

    def restricted_density(self, algebra):
        """Orthogonal projection of the density onto the algebra's span.

        For a *-subalgebra this is the density of the restriction: the
        projected matrix represents omega on the subalgebra and is again
        positive semidefinite.
        """
        return algebra.space.project(self.density)

    def support_in(self, algebra):
        """Support projection of the restriction to a *-subalgebra; lies in the algebra."""
        v = self.support_isometry_in(algebra)
        return v @ dagger(v)

    def support_isometry_in(self, algebra):
        """Isometry V with VV* = support_in(algebra)."""
        rd = self.restricted_density(algebra)
        spec = hermitian_part_spectrum(rd)
        return spec.support_isometry(pd_tol(spec.norm))


def _omega_gram(omega, b):
    """Gram matrix omega(b_a* b_c) of a stacked basis b, plus the pairing rows
    x -> omega(b_a* x) on flattened coordinates, from which it is formed."""
    rows = np.swapaxes(omega.density @ dagger(b), 1, 2).reshape(len(b), -1)
    gram = rows @ b.reshape(len(b), -1).T
    return (gram + dagger(gram)) / 2, rows


def _faithful_on(omega, algebra):
    """omega(x*x) > 0 for nonzero x in the algebra, decided by its Gram matrix."""
    gram, _ = _omega_gram(omega, algebra.space.tensor)
    return _faithful_spectrum(np.linalg.eigvalsh(gram))


def _faithful_spectrum(eigs):
    """_faithful_on's test on the ascending eigenvalues of a Gram matrix."""
    return bool(eigs[0] > tol(1e-10) * max(1.0, float(eigs[-1])))


@dataclass
class TracialCertificate:
    algebra: object
    result: bool
    max_violation: float


def tracial_certificate(omega, algebra):
    """Largest |omega(xy) - omega(yx)| over basis pairs; result true iff below 1e-9 x ||rho||."""
    b = algebra.space.tensor
    # omega(b_a b_c) = Tr((rho b_a) b_c) pairs the rows of rho b with the transposed basis
    t1 = (omega.density @ b).reshape(len(b), -1) @ np.swapaxes(b, 1, 2).reshape(len(b), -1).T
    violation = float(np.abs(t1 - t1.T).max()) if b.size else 0.0
    return TracialCertificate(algebra, violation <= tol(1e-9) * hs_norm(omega.density), violation)


def centralizer(omega, m):
    """{a in M : omega(ax) = omega(xa) for all x in M}, for omega faithful on M.

    Equals the commutant of the projected density inside M.
    """
    if not _faithful_on(omega, m):
        raise NotFaithful("centralizer needs omega faithful on the algebra; use omega_central_algebra")
    return commutant([omega.restricted_density(m)], m)


def omega_central_algebra(omega, m):
    """{x in M : [x, e] = 0 and omega(xy) = omega(yx) for all y in M}, e the support.

    Works for non-faithful omega; with faithful omega it coincides with centralizer.
    """
    e = omega.support
    return commutant([e, omega.restricted_density(m)], m)


def check_support_compression(omega, m):
    """Compress M to the support e: e M^omega e must equal the centralizer of the
    compressed functional on eMe."""
    e = omega.support
    if not m.contains(e):
        raise InvariantViolation("support projection must lie in the algebra for compression")
    corner = Corner(projection_isometry(e))
    compressed = from_spanning(corner.compress(m.space.tensor))
    omega_c = PositiveFunctional(corner.compress(omega.density))
    rhs = centralizer(omega_c, compressed)
    lhs = orthonormalize(corner.compress(omega_central_algebra(omega, m).space.tensor))
    return same_subspace(lhs, rhs.space)


def _central_violation(omega, d, m):
    """max |omega(dx) - omega(xd)| over basis(D) x basis(M)."""
    db = d.space.tensor
    comm = omega.density @ db - db @ omega.density
    vals = np.einsum("aij,bji->ab", comm, m.space.tensor)
    return float(np.abs(vals).max())


def is_D_central(omega, d, m):
    """Does omega(dx) = omega(xd) hold for d in D, x in M?  Returns (verdict, violation).

    Two routes: the bilinear one above decides; the commutator route
    [P_M(rho), d] = 0 must agree when both are far from their thresholds.
    """
    violation = _central_violation(omega, d, m)
    threshold = tol(1e-9) * max(1e-30, hs_norm(omega.density))
    r = omega.restricted_density(m)
    comm_violation = commutation_gap(r, d.space.tensor)
    comm_threshold = tol(1e-9) * max(1e-30, hs_norm(r))
    verdict = cross_check(
        "bilinear and commutator centrality routes disagree", violation <= threshold,
        comm_violation <= comm_threshold, (violation, threshold), (comm_violation, comm_threshold),
    )
    return verdict, violation


def _spectral_projections_in(h):
    """Lower spectral projections of a Hermitian element (each one is a polynomial in it)."""
    spec = eigh_hermitian(h)
    eigs = spec.eigenvalues
    out = []
    cut = tol(1e-8) * max(1.0, spec.norm)
    for k in range(len(eigs) - 1):
        if eigs[k + 1] - eigs[k] > cut:
            mask = np.concatenate([np.ones(k + 1), np.zeros(len(eigs) - k - 1)])
            u = spec.eigenvectors
            out.append((u * mask) @ dagger(u))
    return out


def sample_projections(d, cap=64):
    """Projections in a *-algebra: I plus spectral projections of Hermitian combinations.

    Small algebras have few distinct projections, so the number of random
    draws is bounded instead of insisting on cap distinct results.
    """
    n = d.n
    projections = [np.eye(n, dtype=complex)]
    rng = np.random.default_rng(0)
    hermitian_basis = []
    for b in d.basis:
        for h in ((b + dagger(b)) / 2, (b - dagger(b)) / 2j):
            if hs_norm(h) > tol(1e-12):
                hermitian_basis.append(h)
    for _ in range(4 * cap):
        if len(projections) >= cap or not hermitian_basis:
            break
        coeffs = rng.standard_normal(len(hermitian_basis))
        h = np.tensordot(coeffs, np.stack(hermitian_basis), axes=1)
        for p in _spectral_projections_in(h):
            if len(projections) >= cap:
                break
            if all(hs_norm(p - q) > tol(1e-8) for q in projections):
                projections.append(p)
    return projections


def locally_central_check(omega, d, m, cap_proj=64):
    """Test omega(pxpdp) = omega(pdpxp) over sampled projections p in D.

    With the identity always in the sample this contains the global
    centrality identity; together with [e, D] = 0 the verdict must match
    is_D_central, and a decisive mismatch is an internal fault.
    """
    db = d.space.tensor
    mb = m.space.tensor
    rho = omega.density
    ps = np.stack(sample_projections(d, cap_proj))[:, None]
    ks = ps @ rho @ ps
    # omega(pxpdp) - omega(pdpxp) = Tr((p d k - k d p) x), for every sampled p and basis d at once
    left = ps @ db @ ks - ks @ db @ ps
    vals = left.reshape(-1, d.n**2) @ np.swapaxes(mb, 1, 2).reshape(len(mb), -1).T
    worst = float(np.abs(vals).max())
    threshold = tol(1e-9) * max(1e-30, hs_norm(rho))
    verdict = worst <= threshold
    e_commutes = commutation_gap(omega.support, db) <= tol(1e-9)
    global_verdict, global_violation = is_D_central(omega, d, m)
    cross_check(
        f"local centrality (support commutes: {e_commutes}) contradicts the global test",
        verdict and e_commutes, global_verdict, (worst, threshold), (global_violation, threshold),
    )
    return verdict


def _density_power_it(omega, t):
    """rho^{it}, read off the cached spectrum of a faithful density."""
    return omega.spectrum.apply(lambda v: np.exp(1j * t * np.log(v)))


def modular_group(omega, t):
    """The map x -> rho^{it} x rho^{-it}; needs a faithful functional."""
    if not omega.is_faithful:
        raise NotFaithful("modular group needs a faithful density")
    u = _density_power_it(omega, t)
    uh = dagger(u)

    def sigma(x):
        return u @ x @ uh

    return sigma


def modular_invariance_check(omega, d):
    """Is span(D) invariant under the modular flow of omega?

    Decided infinitesimally: [log rho, d] must stay in span(D) for every
    basis element (a one-parameter group preserves a subspace iff its
    generator does).  Cross-validated by sampling the flow at t = 0.1, 1, pi.
    """
    if not omega.is_faithful:
        raise NotFaithful("modular invariance needs a faithful density")
    log_rho = omega.spectrum.apply(np.log)
    db = d.space.tensor

    def leak(images):
        return float(d.space.residuals(images.reshape(d.dim, -1)).max(initial=0.0))

    worst = leak(log_rho @ db - db @ log_rho)
    threshold = tol(1e-8) * max(1.0, hs_norm(log_rho))
    sampled_worst = max(leak(modular_group(omega, t)(db)) for t in (0.1, 1.0, np.pi))
    sampled_threshold = tol(1e-8)
    return cross_check(
        "infinitesimal modular criterion contradicts the sampled flow", worst <= threshold,
        sampled_worst <= sampled_threshold, (worst, threshold), (sampled_worst, sampled_threshold),
    )


def pt_radon_nikodym(psi, phi):
    """Density h with psi(x) = phi(h^{1/2} x h^{1/2}), for psi commuting with phi.

    Exists exactly when the two densities commute; h is then the ratio
    of the densities and commutes with both.
    """
    if not phi.is_faithful:
        raise NotFaithful("the reference functional must be faithful")
    rp, rf = psi.density, phi.density
    gap = hs_norm(commutator(rp, rf))
    if gap > tol(1e-9) * max(1e-30, hs_norm(rp) * hs_norm(rf)):
        raise DoesNotCommute(f"densities do not commute (defect {gap:.3e}); no derivative exists")
    root_inv = np.linalg.inv(psd_sqrt(rf))
    h = root_inv @ rp @ root_inv
    h = (h + dagger(h)) / 2
    hr = psd_sqrt(h)
    defect = hs_norm(hr @ rf @ hr - rp)
    if defect > tol(1e-8) * max(1e-30, hs_norm(rp)):
        raise InvariantViolation(f"derivative verification failed (defect {defect:.3e})")
    if hs_norm(commutator(h, rf)) > tol(1e-8) * max(1e-30, hs_norm(h) * hs_norm(rf)):
        raise InvariantViolation("derivative does not commute with the reference density")
    return h


def connes_cocycle(psi, phi, t):
    """u_t = rho_psi^{it} rho_phi^{-it} for faithful psi, phi."""
    if not psi.is_faithful or not phi.is_faithful:
        raise NotFaithful("cocycle needs faithful functionals")
    return _density_power_it(psi, t) @ _density_power_it(phi, -t)
