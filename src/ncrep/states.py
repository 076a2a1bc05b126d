"""Positive functionals on M_n as densities: supports, centralizers, modular flow,
and the finite-dimensional Radon-Nikodym correspondence for commuting functionals.

A functional is omega(x) = Tr(rho x) with rho positive semidefinite.  Nothing
here regularizes a singular density; non-faithful functionals are handled by
compressing to the support projection.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .algebras import commutant, from_spanning
from .config import tol
from .errors import (
    DimensionMismatch,
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
    chunk_slices,
    commutation_gap,
    commutator,
    dagger,
    hermitian_part_spectrum,
    hs_norm,
    hs_norms,
    is_hermitian,
    orthonormalize,
    pair_products,
    pd_tol,
    projection_isometry,
    psd_sqrt,
    same_subspace,
    trace_pairings,
)


class PositiveFunctional:
    """omega(x) = Tr(rho x) for positive semidefinite rho."""

    def __init__(self, density, check=True):
        self.density = as_matrix(density)
        self.n = self.density.shape[0]
        if check:
            self.validate()

    @classmethod
    def tracial(cls, n):
        return cls(np.eye(n, dtype=complex) / n, check=False)

    def __call__(self, x):
        return complex(np.einsum("ij,ji->", self.density, np.asarray(x, dtype=complex)))

    @functools.cached_property
    def spectrum(self):
        return hermitian_part_spectrum(self.density)

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
        """Is the density positive definite?  _faithful_spectrum's test on its eigenvalues."""
        return _faithful_spectrum(self.spectrum.eigenvalues)

    @functools.cached_property
    def support(self):
        cutoff = pd_tol(float(self.spectrum.eigenvalues[-1])) if self.n else 0.0
        return self.spectrum.support(cutoff)

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
    """omega(x*x) > 0 for nonzero x in the algebra: _faithful_spectrum on its Gram matrix."""
    gram, _ = _omega_gram(omega, algebra.space.tensor)
    return _faithful_spectrum(np.linalg.eigvalsh(gram))


def _faithful_spectrum(eigs):
    """The one faithfulness test, on the ascending eigenvalues of a density or a Gram matrix:
    positive definite as linalg defines it, the least above pd_tol of the largest."""
    return bool(eigs.size and eigs[0] > pd_tol(float(eigs[-1])))


@dataclass
class TracialCertificate:
    algebra: object
    result: bool
    max_violation: float


def tracial_certificate(omega, algebra):
    """Largest |omega(xy) - omega(yx)| over basis pairs; result true iff below 1e-9 x ||rho||."""
    b = algebra.space.tensor
    t1 = trace_pairings(omega.density @ b, b)  # omega(b_a b_c) = Tr((rho b_a) b_c)
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


def require_same_ambient(omega, d, m):
    """DimensionMismatch unless omega, D and M all live in the same M_n."""
    if not omega.n == d.n == m.n:
        raise DimensionMismatch(f"omega, D and M act on M_{omega.n}, M_{d.n} and M_{m.n}")


def _central_violation(omega, d, m):
    """max |omega(dx) - omega(xd)| over basis(D) x basis(M), as one trace pairing:
    omega(dx) - omega(xd) = Tr((rho d - d rho) x)."""
    db = d.space.tensor
    comm = omega.density @ db - db @ omega.density
    return float(np.abs(trace_pairings(comm, m.space.tensor)).max())


def is_D_central(omega, d, m):
    """Does omega(dx) = omega(xd) hold for d in D, x in M?  Returns (verdict, violation).

    Two routes: the bilinear one decides, pairing the stack rho d - d rho
    over D's basis with M's basis in one gemm (trace_pairings); the
    commutator route [P_M(rho), d] = 0 must agree when both are far from
    their thresholds.  DimensionMismatch when omega, D and M differ in size.
    """
    require_same_ambient(omega, d, m)
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


def sample_projections(d, cap=64):
    """Projections in a *-algebra: I plus lower spectral projections of random Hermitian elements.

    Each draw is a real Gaussian combination of the Hermitian and
    skew-Hermitian parts of D's basis, from one default_rng(0) stream, at
    most 4 * cap draws in all, so small algebras end without cap distinct
    results.  The draws come in batches of about (cap - found) / (n - 1),
    the most new projections a draw can give; a batch of B draws reads the
    same numbers as B single draws.  Each batch is diagonalized by one
    batched eigh, and the projection below every eigenvalue gap wider than
    1e-8 of the spectral norm is a cumulative sum of eigenvector outer
    products.  They are kept in draw order, each unless it lies within 1e-8
    of one already held.  A commutative D of dimension r has exactly
    2^r - 1 nonzero projections, so once it holds that many the sampling
    stops: the list is the one all the draws would give.

    The result depends on D and cap alone, so it is drawn once per cap and
    kept in D's derived store (its basis is read-only); every call returns
    a new list of read-only views of the kept stack.
    """
    return list(d.derived(("projections", cap), lambda: _draw_projections(d, cap)))


def _draw_projections(d, cap):
    """sample_projections' draws, as one read-only (count, n, n) stack."""
    n = d.n
    b = d.space.tensor
    parts = np.stack([(b + dagger(b)) / 2, (b - dagger(b)) / 2j], axis=1).reshape(-1, n, n)
    hermitian = parts[hs_norms(parts) > tol(1e-12)].reshape(-1, n * n)
    target = cap
    if 2**d.dim - 1 < cap and d.is_abelian():  # a small D only: dim D <= 6 at the default cap
        target = 2**d.dim - 1
    held = np.empty((max(1, cap), n, n), dtype=complex)
    held[0] = np.eye(n)
    count, draws = 1, 0
    rng = np.random.default_rng(0)
    while count < target and draws < 4 * cap and len(hermitian):
        batch = min(-(-(target - count) // max(1, n - 1)), 4 * cap - draws)
        draws += batch
        # a vector-matrix product per draw, as one draw at a time would round it: a gap
        # in the spectrum of h amplifies any change in h's last bits in its projections
        h = (rng.standard_normal((batch, 1, len(hermitian))) @ hermitian).reshape(batch, n, n)
        eigs, u = np.linalg.eigh((h + dagger(h)) / 2)  # Hermitian by construction, up to rounding
        cut = tol(1e-8) * np.maximum(1.0, np.maximum(-eigs[:, 0], eigs[:, -1]))
        vecs = u.swapaxes(1, 2)[:, :-1]  # eigenvectors as rows, all but the top one
        lower = np.cumsum(vecs[:, :, :, None] * vecs.conj()[:, :, None, :], axis=1)
        for p in lower[np.diff(eigs, axis=1) > cut[:, None]]:
            if count >= target:
                break
            if hs_norms(held[:count] - p).min() > tol(1e-8):
                held[count] = p
                count += 1
    held.flags.writeable = False
    return held[:count]


def _sandwiches(a, basis, c):
    """Every a_s x_t c_s for stacks a, c (p, n, n) and a basis (q, n, n), as a (p, q, n, n) view:
    one gemm forms each a_s x_t (pair_products), one gemm batched over s multiplies by c_s."""
    p, n, _ = a.shape
    rows = pair_products(a, basis).transpose(0, 2, 1, 3).reshape(p, -1, n)  # the gemm's own layout
    return (rows @ c).reshape(p, n, -1, n).transpose(0, 2, 1, 3)


def _local_violation(omega, projections, d, m):
    """max |omega(pxpdp) - omega(pdpxp)| over a stack of projections p and the bases of D and M.

    With k = p rho p the difference is Tr((p d k - k d p) x), so the stack
    p d k - k d p over every p and d is paired with M's basis in one gemm,
    a chunk of projections at a time.
    """
    db = d.space.tensor
    worst = 0.0
    # per projection: about four (dim D, n, n) stacks at once (the sandwiches, their
    # difference and its copy for the pairing), so n <= 4 takes one pass
    for part in chunk_slices(len(projections), 4 * d.dim * d.n**2):
        p = projections[part]
        ks = p @ omega.density @ p
        left = _sandwiches(p, db, ks) - _sandwiches(ks, db, p)
        worst = max(worst, float(np.abs(trace_pairings(left.reshape(-1, d.n, d.n), m.space.tensor)).max()))
    return worst


def _support_commutes(omega, d):
    """[e, D] = 0 for the support e of omega, to within 1e-9 on D's orthonormal basis."""
    return bool(commutation_gap(omega.support, d.space.tensor) <= tol(1e-9))


def locally_central_check(omega, d, m, cap_proj=64):
    """Test omega(pxpdp) = omega(pdpxp) over sampled projections p in D.

    The statistic is the largest |Tr((p d k - k d p) x)|, k = p rho p, over
    the sampled p and the bases of D and M, formed as gemms: one for every
    p d, one batched over p for the right factors, one trace pairing with
    M's basis.  With the identity always in the sample this contains the
    global centrality identity; together with [e, D] = 0 the verdict must
    match is_D_central, and a decisive mismatch is an internal fault.
    DimensionMismatch when omega, D and M differ in size.
    """
    require_same_ambient(omega, d, m)
    return _locally_central(omega, d, m, cap_proj, *is_D_central(omega, d, m), _support_commutes(omega, d))


def _locally_central(omega, d, m, cap_proj, global_verdict, global_violation, e_commutes):
    """locally_central_check past its probes: is_D_central's verdict and violation, [e, D] = 0."""
    worst = _local_violation(omega, np.stack(sample_projections(d, cap_proj)), d, m)
    threshold = tol(1e-9) * max(1e-30, hs_norm(omega.density))
    verdict = worst <= threshold
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
