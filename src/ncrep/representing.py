"""Characters on triangular-type subalgebras and their representing expectations.

Given an inclusion D <= A <= M with D a *-subalgebra, A merely a subalgebra,
and a character Phi : A -> D (unital, multiplicative, fixes D, D-bimodule),
the pipelines here produce a conditional expectation Psi : M -> D with
Psi|_A = Phi together with a state rho that Psi preserves.  rho acts as a
noncommutative representing measure: it agrees with the reference functional
composed with Phi on all of A, which forces it to annihilate ker(Phi).

The core construction matches a density r for the functional x -> ref(Phi(x))
on A, factors r = a b* by polar decomposition, and projects b onto the left
multiples of a by A.  The projected factor c satisfies Tr(j c c*) = 0 for
every j in ker(Phi) because ker(Phi)c lands inside the multiples of a by the
kernel, which b (hence c) is orthogonal to.  Conjugating cc* into a properly
normalized density and averaging over the relative commutant of D yields rho.
"""

import numpy as np

from .algebras import (
    _block_algebra,
    check_ss_density,
    diagonal_part_check,
    full_matrix_algebra,
    unitary_conjugate_algebra,
)
from .config import tol
from .errors import (
    DimensionMismatch,
    EmptyInput,
    GSingular,
    InconsistencyDetected,
    InvariantViolation,
    NotAbelian,
    NotAnExtension,
    NotCentral,
    NotDense,
    NotFaithful,
    NotTracial,
)
from .expectations import (
    _domain_images,
    _pullback_density,
    _average_to_central,
    _preserving_expectation,
    _values_on,
    preserving_expectation,
)
from .linalg import (
    OperatorSubspace,
    apply_map,
    as_matrix,
    bimodule_gaps,
    chunk_slices,
    constraint_system,
    dagger,
    eigh_hermitian,
    hs_norm,
    hs_norms,
    minimal_norm_solution,
    null_space_rows,
    orthonormalize,
    pair_products,
    pd_tol,
    psd_sqrt,
    sandwich_matrix,
    subspace_sum,
)
from .states import PositiveFunctional, _faithful_on, is_D_central, tracial_certificate

# condition-number cap for inverting the D-average of cc*; it is invertible in
# exact arithmetic, so anything beyond this is a numerical failure to report
G_CONDITION_CAP = 1e12


class DCharacter:
    """Unital multiplicative D-bimodule map Phi from a subalgebra A onto D <= A.

    The constructor composes the map matrix with the orthogonal projection
    onto span(A), so it is defined everywhere but only meaningful on A, and
    keeps its values Phi(x_j) on A's orthonormal basis as the rows of images,
    which the checks read.  The kernel J = ker(Phi) complements D inside A
    (A = J + D as a direct sum) and satisfies D J D <= J; it is exactly the
    part of A a representing functional has to annihilate.
    """

    def __init__(self, map_matrix, domain, range_alg, check=True):
        self.images, self.map_matrix = _domain_images(map_matrix, domain)
        self.domain = domain
        self.range_alg = range_alg
        self.n = domain.n
        self.blocks = None
        # a combination c of A's basis lies in J when c times the images vanishes
        self.kernel = OperatorSubspace(self.n, null_space_rows(self.images.T) @ domain.space.flat)
        if check:
            self.validate()

    def __call__(self, x):
        return apply_map(self.map_matrix, as_matrix(x))

    def validate(self):
        k = self.map_matrix
        n = self.n
        eye = np.eye(n, dtype=complex)
        gap = hs_norm(self(eye) - eye)
        if gap > tol(1e-9) * np.sqrt(n):
            raise InvariantViolation(f"unital: Phi(I) misses I by {gap:.3e}")
        d_flat = self.range_alg.space.flat
        d_scale = np.maximum(1.0, hs_norms(d_flat))
        fix = hs_norms(d_flat @ k.T - d_flat)
        outside = self.domain.space.residuals(d_flat) > tol(1e-8) * d_scale
        moved = fix > tol(1e-8) * d_scale
        bad = np.flatnonzero(outside | moved)
        if bad.size:  # the first failing basis element decides, as in a loop over the basis
            if outside[bad[0]]:
                raise InvariantViolation("range: D is not inside A")
            raise InvariantViolation(f"fixes D: Phi moves a D element by {fix[bad[0]]:.3e}")
        into = hs_norm(self.range_alg.space.residuals(self.images))
        k_norm = hs_norm(k)
        if into > tol(1e-8) * max(1.0, k_norm):
            raise InvariantViolation(f"range: Phi output leaves span(D) by {into:.3e}")
        b = self.domain.space.tensor
        images = self.images.reshape(-1, n, n)
        defects, allowed = [], []
        # all products x_a x_b and Phi(x_a) Phi(x_b), a chunk of a's at a time; per a, four
        # (dim A, n^2) arrays: both products, the image of the first and the defect
        for part in chunk_slices(len(b), 4 * len(b) * n * n):
            prods = pair_products(b[part], b).reshape(-1, n * n)
            want = pair_products(images[part], images).reshape(-1, n * n)
            defects.append(hs_norms(prods @ k.T - want))
            allowed.append(tol(1e-8) * np.maximum(1.0, hs_norms(prods)))
        defects, allowed = np.concatenate(defects), np.concatenate(allowed)
        if np.any(defects > allowed):
            raise InvariantViolation(
                f"multiplicative: Phi(xy) != Phi(x)Phi(y), defect {defects.max():.3e}"
            )
        # per basis element d: the left gap, then the right one; the first failing gap is reported
        gaps = bimodule_gaps(k, self.range_alg.space.tensor).T.ravel()
        bad = np.flatnonzero(gaps > tol(1e-8) * max(1.0, k_norm) * np.sqrt(n))
        if bad.size:
            raise InvariantViolation(f"bimodule: Phi(d x d') != d Phi(x) d' by {gaps[bad[0]]:.3e}")
        if self.kernel.size + self.range_alg.dim != self.domain.dim:
            raise InvariantViolation(
                f"splitting: dim J + dim D = {self.kernel.size} + {self.range_alg.dim}"
                f" != dim A = {self.domain.dim}"
            )
        if subspace_sum(self.kernel, self.range_alg.space).size != self.domain.dim:
            raise InvariantViolation("splitting: J and D overlap")
        # eight random elements of A, each drawn as its real then its imaginary coordinates
        parts = np.random.default_rng(1).standard_normal((8, 2, self.domain.dim))
        x = (parts[:, 0] + 1j * parts[:, 1]) @ self.domain.space.flat
        sizes = np.linalg.norm(np.stack([x, x @ k.T]).reshape(16, n, n), 2, axis=(1, 2)).reshape(2, 8)
        grow = sizes[1] - sizes[0]
        bad = np.flatnonzero(grow > tol(1e-8) * np.maximum(1.0, sizes[0]))
        if bad.size:
            raise InvariantViolation(f"contractive: operator norm grows by {grow[bad[0]]:.3e}")


def make_block_character(n, blocks):
    """Canonical instance family: A = block upper triangular, D = block diagonal,
    Phi = compression onto the diagonal blocks, all for an ordered partition."""
    return _block_character(n, blocks)


def _block_character(n, blocks, u=None):
    """make_block_character, or with a unitary u its rotation x -> u x u* of A,
    D and Phi, which erases the block tags.  Only the returned objects are
    validated: a rotation builds the coordinate ones unchecked."""
    blocks = [list(blk) for blk in blocks]
    a = _block_algebra(n, blocks, star=False, check=u is None)
    d = _block_algebra(n, blocks, star=True, check=u is None)
    if u is None:
        phi = block_compression_character(a, d)
    else:
        s = sandwich_matrix(u, dagger(u))
        # Phi's stored matrix on the coordinate A, composed with A's projection as DCharacter stores it
        k = _domain_images(_block_compression_matrix(a), a)[1]
        a, d = unitary_conjugate_algebra(a, u), unitary_conjugate_algebra(d, u)
        phi = DCharacter(s @ k @ dagger(s), a, d)
    if not check_ss_density(a, full_matrix_algebra(n)):
        raise InvariantViolation("A + A* should span M for a triangular partition")
    if not diagonal_part_check(a, d, phi):
        raise InvariantViolation("A intersect A* should be exactly D")
    return a, d, phi


def _block_compression_matrix(a):
    """Matrix of x -> sum_t p_t x p_t, p_t the diagonal projection onto block t of a.blocks."""
    label = np.empty(a.n, dtype=int)
    for t, blk in enumerate(a.blocks):
        label[blk] = t
    # the map keeps entry (i, j) iff i and j share a block: a diagonal matrix
    return np.diag((label[:, None] == label[None, :]).ravel().astype(complex))


def block_compression_character(a, d):
    """Phi(x) = sum_t p_t x p_t on A, p_t the diagonal projection onto block t of a.blocks."""
    phi = DCharacter(_block_compression_matrix(a), a, d)
    phi.blocks = [list(blk) for blk in a.blocks]
    return phi


def _matched_density(constraint_mats, values, m, perturb, rng_seed):
    """Minimal-norm r with Tr(r x) = value for each constraint matrix x.

    The minimal-norm solution lies in the span of the adjoints of the
    constraints, hence inside span(M).  A nonzero perturb shifts r inside the
    constraint kernel intersected with span(M): the matching is untouched but
    downstream results can be probed for dependence on the choice of r.
    """
    values = np.asarray(values, dtype=complex)
    system = constraint_system(constraint_mats)
    r = minimal_norm_solution(system, values)
    resid = float(np.linalg.norm(system @ r.ravel() - values))
    if resid > tol(1e-9) * max(1.0, float(np.linalg.norm(values))):
        raise InvariantViolation(f"matching: constraints unsatisfied (residual {resid:.3e})")
    if perturb:
        rng = np.random.default_rng(rng_seed)
        coeff = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
        z = m.space.from_coords(coeff)
        matched_part = minimal_norm_solution(system, system @ z.ravel())
        z -= matched_part
        if hs_norm(z) > tol(1e-12):
            r = r + (perturb * hs_norm(r) / hs_norm(z)) * z
    return r


def _polar_factors(r):
    """r = a b* with a = u |r|^(1/2), b = |r|^(1/2) and u the polar partial isometry.

    Both factors are functions of r and r*r, so they stay inside any
    *-algebra containing r."""
    spec = eigh_hermitian(psd_sqrt(dagger(r) @ r))
    cut = pd_tol(float(np.max(np.abs(spec.eigenvalues))))
    a = r @ spec.apply(lambda v: np.where(v > cut, 1.0 / np.sqrt(np.clip(v, cut, None)), 0.0))
    b = spec.apply(lambda v: np.sqrt(np.clip(v, 0.0, None)))
    gap = hs_norm(a @ dagger(b) - r)
    if gap > tol(1e-8) * max(1.0, hs_norm(r)):
        raise InvariantViolation(f"factorization: a b* misses r by {gap:.3e}")
    return a, b


def _projected_factor(a_alg, kernel, a_mat, b_mat, weight=None):
    """c = projection of b onto span{x a : x in A}, orthogonal to span{j a : j in J}.

    A positive-definite weight w switches the inner product to Tr(w y* x),
    realized by right-multiplying every vector with w^(1/2)."""
    n = a_mat.shape[0]
    sqw = psd_sqrt(weight) if weight is not None else np.eye(n, dtype=complex)
    reach = orthonormalize([x @ a_mat @ sqw for x in a_alg.basis])
    bt = b_mat @ sqw
    ct = reach.project(bt)
    scale = max(1.0, hs_norm(bt))
    for j in kernel.basis:
        f = j @ a_mat @ sqw
        for vec, who in ((bt, "b"), (ct, "c")):
            overlap = abs(np.vdot(f, vec))
            if overlap > tol(1e-8) * scale * max(1.0, hs_norm(f)):
                raise InvariantViolation(
                    f"kernel orthogonality: {who} overlaps ker(Phi)·a by {overlap:.3e}"
                )
    if weight is None:
        return ct
    inv_sqw = eigh_hermitian(weight).apply(lambda v: 1.0 / np.sqrt(v))
    return ct @ inv_sqw


def _invertible_average(g, what):
    """Spectral data of g, gated on positivity and a hard condition-number cap."""
    g = (g + dagger(g)) / 2
    spec = eigh_hermitian(g)
    eigs = spec.eigenvalues
    top = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if eigs.size == 0 or eigs[0] <= 0.0 or top > G_CONDITION_CAP * eigs[0]:
        raise GSingular(
            f"{what} is numerically singular (eigenvalues {eigs[0]:.3e}..{eigs[-1]:.3e},"
            f" condition cap {G_CONDITION_CAP:.0e})"
        )
    return spec


def _extension_gap(psi, phi):
    """||Psi(x_j) - Phi(x_j)|| over A's orthonormal basis x_j, which is ||(Psi - Phi) P_A||_F."""
    return hs_norm(phi.domain.space.flat @ psi.map_matrix.T - phi.images)


def _check_extends_character(e, phi):
    gap = _extension_gap(e, phi)
    if gap > tol(1e-7) * max(1.0, hs_norm(phi.map_matrix)):
        raise InvariantViolation(f"extension: Psi differs from Phi on A by {gap:.3e}")


def _check_represents(rho, phi, values, what):
    # rho must keep the matched values on all of A, not merely on D: averaging
    # moves the functional only inside the relative commutant of D
    got = _values_on(rho, phi.domain.space.flat)
    if np.any(np.abs(got - values) > tol(1e-8) * np.maximum(1.0, np.abs(values))):
        raise InvariantViolation(f"{what} no longer represents the character on A")


def _check_annihilates(functional, kernel, what):
    vals = np.abs(_values_on(functional, kernel.flat))
    bad = np.flatnonzero(vals > tol(1e-8))
    if bad.size:  # the first failing basis element is reported, as in a loop over the basis
        raise InvariantViolation(f"{what} does not annihilate ker(Phi) ({vals[bad[0]]:.3e})")


def representing_expectation_tracial(m, tau, d, a, phi, perturb_r=0.0, rng_seed=0):
    """Expectation M -> D extending the character, preserving a tau-built state.

    Works in the inner product Tr(k y* x) with k the density of tau on M;
    for the normalized trace k is scalar and this is the plain Hilbert-Schmidt
    geometry.  Returns (Psi, rho) with Psi|_A = Phi, rho∘Psi = rho and
    rho|_A = tau∘Phi.
    """
    cert = tracial_certificate(tau, m)
    if not cert.result:
        raise NotTracial(f"reference is not tracial on M (violation {cert.max_violation:.3e})")
    if not _faithful_on(tau, m):
        raise NotFaithful("reference is not faithful on M")
    k = tau.restricted_density(m)
    k = (k + dagger(k)) / 2
    # tracial <=> k commutes with M, so k-weighted projections stay M-compatible
    values = _values_on(tau, phi.images)
    r = _matched_density([x @ k for x in a.basis], values, m, perturb_r, rng_seed)
    a_mat, b_mat = _polar_factors(r)
    c = _projected_factor(a, phi.kernel, a_mat, b_mat, weight=k)
    e_d = preserving_expectation(tau, d, m)
    g = e_d(c @ dagger(c))
    spec_g = _invertible_average(g, "the D-average of cc*")
    inv_sq = spec_g.apply(lambda v: 1.0 / np.sqrt(v))
    h = inv_sq @ (c @ dagger(c)) @ inv_sq
    norm_gap = hs_norm(e_d(h) - np.eye(m.n))
    if norm_gap > tol(1e-7) * np.sqrt(m.n):
        raise InvariantViolation(f"normalization: E_D(h) misses I by {norm_gap:.3e}")
    kh = k @ h
    omega = PositiveFunctional((kh + dagger(kh)) / 2)
    _check_annihilates(omega, phi.kernel, "the normalized state")
    rho = _average_to_central(omega, tau, d, m)  # tau passed E_D's D-centrality gate
    _check_represents(rho, phi, values, "the averaged state")
    psi = _preserving_expectation(rho, d, m)  # rho is D-central: averaging checked it
    _check_extends_character(psi, phi)
    return psi, rho


def representing_expectation_state(m, omega, d, a, phi, perturb_r=0.0, rng_seed=0):
    """Same construction for a faithful state whose density commutes with D.

    The matching and the projection of b run in the plain trace pairing; the
    weight enters only through the D-average, taken on the conjugated matrix
    k^(-1/2) cc* k^(-1/2) so that the resulting density extends omega on D.
    Returns (Psi, rho) with Psi|_A = Phi, rho∘Psi = rho and rho|_A = omega∘Phi.
    """
    ok, violation = is_D_central(omega, d, m)
    if not ok:
        raise NotCentral(f"D is not inside the centralizer of omega (violation {violation:.3e})")
    if not _faithful_on(omega, m):
        raise NotFaithful("omega is not faithful on M")
    k = omega.restricted_density(m)
    k = (k + dagger(k)) / 2
    spec_k = eigh_hermitian(k)
    inv_sqk = spec_k.apply(lambda v: 1.0 / np.sqrt(v))
    sqk = spec_k.apply(lambda v: np.sqrt(np.clip(v, 0.0, None)))
    values = _values_on(omega, phi.images)
    r = _matched_density(list(a.basis), values, m, perturb_r, rng_seed)
    a_mat, b_mat = _polar_factors(r)
    c = _projected_factor(a, phi.kernel, a_mat, b_mat)
    cc = c @ dagger(c)
    e_d = _preserving_expectation(omega, d, m)  # omega passed the D-centrality gate above
    g0 = e_d(inv_sqk @ cc @ inv_sqk)
    spec_g = _invertible_average(g0, "the weighted D-average of cc*")
    # the trace pre-adjoint of E_D applied to cc* must factor as k^(1/2) g0 k^(1/2);
    # both sides are computed independently, so this ties the two routes together
    split_gap = hs_norm(_pullback_density(e_d.map_matrix, cc) - sqk @ (spec_g.reconstruct() @ sqk))
    if split_gap > tol(1e-8) * max(1.0, hs_norm(cc)):
        raise InconsistencyDetected(
            f"the D-average of cc* disagrees with its weighted factorization ({split_gap:.3e})"
        )
    h1 = spec_g.apply(lambda v: 1.0 / np.sqrt(v)) @ c
    h = h1 @ dagger(h1)
    h = (h + dagger(h)) / 2
    if abs(np.trace(h).real - 1.0) > tol(1e-7):
        raise InvariantViolation(f"normalization: Tr(h) = {np.trace(h).real:.12f}")
    theta = PositiveFunctional(h)
    want = _values_on(omega, d.space.flat)
    if np.any(np.abs(_values_on(theta, d.space.flat) - want) > tol(1e-8) * np.maximum(1.0, np.abs(want))):
        raise InvariantViolation("the normalized state does not extend omega on D")
    _check_annihilates(theta, phi.kernel, "the normalized state")
    norm_gap = hs_norm(e_d(inv_sqk @ h @ inv_sqk) - np.eye(m.n))
    if norm_gap > tol(1e-7) * np.sqrt(m.n):
        raise InvariantViolation(f"normalization: E_D(k^-1/2 h k^-1/2) misses I by {norm_gap:.3e}")
    rho = _average_to_central(theta, omega, d, m)
    _check_represents(rho, phi, values, "the averaged state")
    psi = _preserving_expectation(rho, d, m)  # rho is D-central: averaging checked it
    _check_extends_character(psi, phi)
    return psi, rho


def representing_expectation_commutative(m, sigma, d, a, phi):
    """Abelian specialization: the projected factor alone already represents.

    For abelian M the normalized functional Tr(. cc*) is automatically
    D-central and faithful on D, so no positivity correction or averaging is
    needed; its preserving expectation extends the character.  Returns
    (Psi, rho) with rho = sigma∘Psi, so rho|_A = sigma∘Phi.  The uniqueness
    of Psi is witnessed by rebuilding it from rho, which Psi also preserves.
    """
    if not m.is_abelian():
        raise NotAbelian("M must be abelian")
    if not _faithful_on(sigma, d):
        raise NotFaithful("sigma is not faithful on D")
    values = _values_on(sigma, phi.images)
    r = _matched_density(list(a.basis), values, m, 0.0, 0)
    a_mat, b_mat = _polar_factors(r)
    c = _projected_factor(a, phi.kernel, a_mat, b_mat)
    cc = c @ dagger(c)
    mass = float(np.trace(cc).real)
    if mass <= tol(1e-12):
        raise InvariantViolation("projected factor vanished; sigma(Phi(I)) should force c != 0")
    seed = PositiveFunctional((cc + dagger(cc)) / (2 * mass))
    _check_annihilates(seed, phi.kernel, "the normalized state")
    if not _faithful_on(seed, d):
        raise InvariantViolation("the representing state should be faithful on D")
    psi = preserving_expectation(seed, d, m)
    _check_extends_character(psi, phi)
    rho = psi.pullback(sigma)
    _check_represents(rho, phi, values, "sigma∘Psi")
    rebuilt = preserving_expectation(rho, d, m)
    gap = float(np.linalg.norm(psi.map_matrix - rebuilt.map_matrix))
    if gap > tol(1e-7) * max(1.0, float(np.linalg.norm(psi.map_matrix))):
        raise InconsistencyDetected(
            f"uniqueness: rebuilding from sigma∘Psi gave a different expectation ({gap:.3e})"
        )
    return psi, rho


def extension_via_ss_density(m, omega_d, d, a, phi, psi):
    """When A + A* spans M, a state extension of omega_D∘Phi determines the expectation.

    The extension is automatically D-central: its centrality identities hold
    on A by traciality of omega_D on D, and A + A* exhausts M.  The
    psi-preserving expectation then extends the character.
    """
    if not check_ss_density(a, m):
        raise NotDense("A + A* does not span M")
    cert = tracial_certificate(omega_d, d)
    if not cert.result:
        raise NotTracial(f"omega_D is not tracial on D (violation {cert.max_violation:.3e})")
    if not _faithful_on(omega_d, d):
        raise NotFaithful("omega_D is not faithful on D")
    want = _values_on(omega_d, phi.images)
    if np.any(np.abs(_values_on(psi, a.space.flat) - want) > tol(1e-8) * np.maximum(1.0, np.abs(want))):
        raise NotAnExtension("psi does not extend omega_D∘Phi on A")
    ok, violation = is_D_central(psi, d, m)
    if not ok:
        raise InconsistencyDetected(
            f"an extension of a tracial character functional must be D-central"
            f" when A + A* spans M; violation {violation:.3e}"
        )
    e = _preserving_expectation(psi, d, m)  # psi passed the D-centrality test above
    _check_extends_character(e, phi)
    return e


def mth_check(mu, g):
    """Whether (sum f mu)^2 <= sum f^2 g mu for every f >= 0.

    Decided by the closed criterion: g > 0 wherever mu > 0 and
    sum(mu/g) <= 1 over that support.  Cross-checked against the ratio
    maximizer f = 1/g and 64 random nonnegative probes; the two verdicts must
    agree away from the boundary sum(mu/g) = 1.
    """
    mu = np.asarray(mu, dtype=float)
    g = np.asarray(g, dtype=float)
    if mu.shape != g.shape or mu.ndim != 1:
        raise DimensionMismatch(f"weight and density shapes differ: {mu.shape} vs {g.shape}")
    if mu.size == 0:
        raise EmptyInput("empty weight vector")
    if np.any(mu < 0):
        raise InvariantViolation("mu must be nonnegative")
    supp = mu > 0
    positive = bool(np.all(g[supp] > 0))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        integral = float(np.sum(mu[supp] / g[supp])) if positive else np.inf
        criterion = positive and integral <= 1.0 + tol(1e-12)
        rng = np.random.default_rng(0)
        recip = np.zeros_like(g)
        ok = supp & (g > 0)
        recip[ok] = 1.0 / g[ok]
        f = np.vstack([np.where(supp & (g <= 0), 1.0, 0.0), recip, rng.random((64, mu.size))])
        # the ratio is scale invariant in f, so normalize each probe to dodge overflow
        blown = np.isinf(f).any(axis=1)
        f[blown] = np.isinf(f[blown])
        top = f.max(axis=1, keepdims=True)
        f = np.divide(f, top, out=f, where=top > 0)
        weight = np.sum(f * mu, axis=1)
        quad = np.sum(f * f * g * mu, axis=1)
        ratios = np.where(quad > 0, weight * weight / quad, np.inf)
        # a probe with no weight says nothing; fmax skips the NaN of an undefined ratio
        best = float(np.fmax.reduce(ratios[~(weight <= 0)], initial=0.0))
    sampled = best <= 1.0 + tol(1e-9)
    if sampled != criterion and abs(integral - 1.0) > 30 * tol(1e-9):
        raise InconsistencyDetected(
            f"ratio probes ({best:.6e}) contradict the integral criterion ({integral:.6e})"
        )
    return criterion
