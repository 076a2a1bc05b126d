"""Positive functionals on M_n as densities: supports, centralizers, modular flow,
and the finite-dimensional Radon-Nikodym correspondence for commuting functionals.

A functional is omega(x) = Tr(rho x) with rho positive semidefinite, on a
read-only density, and it keeps what it has proved about itself and
algebra objects in its store (PositiveFunctional.derived).  Nothing here
regularizes a singular density; non-faithful functionals are handled by
compressing to the support projection.
"""

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .algebras import _coordinate_mask, _mask_classes, commutant, corner_algebra
from .config import tol
from .errors import (
    DimensionMismatch,
    DoesNotCommute,
    InvariantViolation,
    NotFaithful,
    NotHermitian,
    NotPositiveDefinite,
    NotTracial,
    check,
    cross_check,
)
from .linalg import (
    _BLOCK_FROM,
    Corner,
    _identity_rows,
    as_matrix,
    chunk_slices,
    commutation_gap,
    commutator,
    dagger,
    hermitian_part_spectrum,
    hs_norm,
    hs_norms,
    orthonormalize,
    pair_products,
    pd_tol,
    projection_isometry,
    psd_sqrt,
    read_only,
    require_hermitian,
    same_subspace,
    sized_matrix,
    trace_pairings,
    unit_bracket_squares,
)


class PositiveFunctional:
    """omega(x) = Tr(rho x) for positive semidefinite rho, on a read-only density.

    A caller's writeable array is copied (linalg.read_only), so nothing
    computed from the density can go stale.  What depends on the functional
    and on algebra objects alone is computed once and kept in its store
    (derived): the restricted density per algebra, is_D_central's
    (verdict, violation) per (D, M) and the validated expectation
    _preserving_expectation builds per (target, M).  The store holds its
    keys' algebras by weak references only, and an entry is dropped once an
    algebra in its key is collected, so one functional probed against many
    algebras keeps nothing of those its caller has let go.  A kept
    expectation holds its target and M itself, so they and its entry live
    as long as the functional.
    """

    def __init__(self, density, check=True):
        self.density = read_only(as_matrix(density))
        self.n = self.density.shape[0]
        self._derived = {}
        if check:
            self.validate()

    def derived(self, key, compute):
        """compute() on the first request for key = (tag, *algebras), then the kept value, as
        linalg.DerivedStore.derived.  The entry is filed under the algebras' ids with a weak
        reference to each, whose callback drops it once that algebra is collected; the callback
        holds the functional weakly, so neither side keeps the other alive."""
        tag, *algebras = key
        stored = (tag, *map(id, algebras))
        entry = self._derived.get(stored)
        if entry is None:
            drop = _dropper(weakref.ref(self), stored)
            entry = self._derived[stored] = (compute(), [weakref.ref(alg, drop) for alg in algebras])
        return entry[0]

    @classmethod
    def tracial(cls, n):
        return cls(np.eye(n, dtype=complex) / n, check=False)

    def __call__(self, x):
        return complex(np.einsum("ij,ji->", self.density, sized_matrix(x, self.n)))

    @functools.cached_property
    def spectrum(self):
        return hermitian_part_spectrum(self.density)

    def validate(self):
        # both thresholds scale by max(1, ||rho||), and ||rho|| <= ||rho||_HS: a density of HS norm
        # at most 1, every state, needs no SVD for it
        scale = hs_norm(self.density)
        if scale > 1.0:
            scale = float(np.linalg.norm(self.density, 2))
        require_hermitian(NotHermitian, "density must be Hermitian", self.density, scale)
        low = self.spectrum.eigenvalues[0] if self.n else 0.0
        check(NotPositiveDefinite, "density has negative eigenvalue -{:.3e}", -low, tol(1e-10) * max(1.0, scale))

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
        positive semidefinite.  It is computed once per algebra object and
        kept in the store, read-only.
        """

        def compute():
            rd = algebra.space.project(self.density)
            rd.flags.writeable = False
            return rd

        return self.derived(("restricted density", algebra), compute)

    def support_in(self, algebra):
        """Support projection of the restriction to a *-subalgebra; lies in the algebra."""
        v = self.support_isometry_in(algebra)
        return v @ dagger(v)

    def support_isometry_in(self, algebra):
        """Isometry V with VV* = support_in(algebra)."""
        rd = self.restricted_density(algebra)
        spec = hermitian_part_spectrum(rd)
        return spec.support_isometry(pd_tol(spec.norm))


def _dropper(owner, stored):
    """The weakref callback that removes the entry stored from the store of the functional
    owner refers to, if that functional is still alive."""

    def drop(_):
        functional = owner()
        if functional is not None:
            functional._derived.pop(stored, None)

    return drop


def _omega_gram(omega, b):
    """Gram matrix omega(b_a* b_c) of a stacked basis b, plus the pairing rows
    x -> omega(b_a* x) on flattened coordinates, from which it is formed."""
    rows = np.swapaxes(omega.density @ dagger(b), 1, 2).reshape(len(b), -1)
    gram = rows @ b.reshape(len(b), -1).T
    return (gram + dagger(gram)) / 2, rows


def _faithful_on(omega, algebra):
    """omega(x*x) > 0 for nonzero x in the *-algebra B: _faithful_spectrum on P_B(rho).
    For B = u(sum_t M_k_t (x) 1_m_t)u*, P_B(rho) = u(sum_t s_t (x) 1_m_t)u* and the
    Gram matrix omega(b_a* b_c) ~ sum_t I_k_t (x) s_t^T have the same eigenvalues."""
    rd = omega.restricted_density(algebra)
    return _faithful_spectrum(np.linalg.eigvalsh((rd + dagger(rd)) / 2))


def _faithful_spectrum(eigs):
    """The one faithfulness test, on the ascending eigenvalues of a density or a Gram matrix:
    positive definite as linalg defines it, the least above pd_tol of the largest."""
    return bool(eigs.size and eigs[0] > pd_tol(float(eigs[-1])))


@dataclass
class TracialCertificate:
    algebra: object
    result: bool
    max_violation: float


def _unit_read(algebra, floor=_BLOCK_FROM):
    """The (n, n) mask of the matrix units E_ij that are an algebra's rows, declared in coordinates
    (algebras._coordinate_mask), when the mask is an equivalence relation's blocks (_mask_classes) and
    n^4 is above floor, else None.  The probes read by unit above _BLOCK_FROM: at n <= 4 the products
    with D's basis cost less than the reads' fixed work."""
    mask = _coordinate_mask(algebra) if algebra.n**4 > floor else None
    return None if mask is None or _mask_classes(algebra) is None else mask


def _unit_violation(rho, mask, within):
    """The largest of |rho_ab|, a != b, over the entries a boolean mask within selects (within = ...
    for every entry) and of |rho_ii - rho_jj| over the (i, j) on mask."""
    diag = rho.diagonal()
    return max(float(np.abs(rho - np.diag(diag))[within].max()),
               float(np.abs(diag[:, None] - diag[None, :])[mask].max()))


def _commutation_gap(x, d):
    """linalg.commutation_gap(x, D's basis): on D's units (_unit_read) the largest
    ||[x, E_ij]|| read by index (linalg.unit_bracket_squares), else from the brackets."""
    mask = _unit_read(d)
    if mask is None:
        return commutation_gap(x, d.space.tensor)
    return float(np.sqrt(unit_bracket_squares(x[None], *np.nonzero(mask)).max()))


def tracial_certificate(omega, algebra):
    """Largest |omega(xy) - omega(yx)| over basis pairs; result true iff below 1e-9 x ||rho||.

    On rows that are the units E_ij of an equivalence relation's blocks
    (_unit_read, at every n), omega(E_ij E_kl) - omega(E_kl E_ij) is
    delta_jk rho_li - delta_li rho_jk: every off-diagonal entry of rho within
    a block and every difference rho_ii - rho_jj within one, and nothing else
    that is nonzero.  Their largest modulus is read off rho in O(n^2), the
    same numbers the pairing forms with exact products by ones and zeros.
    """
    if omega.n != algebra.n:
        raise DimensionMismatch(f"omega acts on M_{omega.n}, the algebra on M_{algebra.n}")
    rho = omega.density
    mask = _unit_read(algebra, 0)
    if mask is not None:
        violation = _unit_violation(rho, mask, mask)
    else:
        b = algebra.space.tensor
        t1 = trace_pairings(rho @ b, b)  # omega(b_a b_c) = Tr((rho b_a) b_c)
        violation = float(np.abs(t1 - t1.T).max()) if b.size else 0.0
    return TracialCertificate(algebra, violation <= tol(1e-9) * hs_norm(rho), violation)


def require_tracial(omega, algebra, message):
    """NotTracial(message), formatted with the certificate's violation, unless omega is tracial on the algebra."""
    cert = tracial_certificate(omega, algebra)
    if not cert.result:
        raise NotTracial(message.format(cert.max_violation))


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
    compressed = corner_algebra(m, corner)
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
    omega(dx) - omega(xd) = Tr((rho d - d rho) x).  On M's identity rows the
    pairing Tr(c E_ab) = c_ba is every entry of the stack, read off as max |rho d - d rho|.

    On D's units E_ij (_unit_read) with M's identity rows no stack is formed:
    rho E_ij - E_ij rho holds rho_ai (a != i) in column j, -rho_jb (b != j)
    in row i, rho_ii - rho_jj at (i, j) and zeros elsewhere, and every index
    is a unit's row and column, so the largest modulus is that of every
    off-diagonal entry of rho and every rho_ii - rho_jj over the mask: bit
    for bit the products' numbers, which are by exact ones and zeros.
    """
    mask = _unit_read(d)
    if mask is not None and _identity_rows(m.space):
        return _unit_violation(omega.density, mask, ...)
    db = d.space.tensor
    comm = omega.density @ db
    comm -= db @ omega.density
    if _identity_rows(m.space):
        return float(np.abs(comm).max())
    return float(np.abs(trace_pairings(comm, m.space.tensor)).max())


def is_D_central(omega, d, m):
    """Does omega(dx) = omega(xd) hold for d in D, x in M?  Returns (verdict, violation).

    Two routes: the bilinear one decides, pairing the stack rho d - d rho
    over D's basis with M's basis in one gemm (trace_pairings); the
    commutator route [P_M(rho), d] = 0 must agree when both are far from
    their thresholds.  On a D whose rows are the units E_ij of an
    equivalence relation's blocks, above _BLOCK_FROM, both are read off
    n x n data with no (dim D, n, n) stack: the bilinear statistic from the
    entries of rho (_central_violation), the commutator norms by index
    (_commutation_gap).  DimensionMismatch when omega, D and M differ in size.
    The pair is decided once per (D, M) and kept in omega's store, so every
    gate on it (require_D_central) reads the same verdict; a probe that
    raised keeps nothing and raises again.
    """
    return omega.derived(("D-central", d, m), lambda: _D_central(omega, d, m))


def _D_central(omega, d, m):
    """is_D_central's two routes, run."""
    require_same_ambient(omega, d, m)
    violation = _central_violation(omega, d, m)
    threshold = tol(1e-9) * max(1e-30, hs_norm(omega.density))
    r = omega.restricted_density(m)
    comm_violation = _commutation_gap(r, d)
    comm_threshold = tol(1e-9) * max(1e-30, hs_norm(r))
    verdict = cross_check(
        "bilinear and commutator centrality routes disagree", violation <= threshold,
        comm_violation <= comm_threshold, (violation, threshold), (comm_violation, comm_threshold),
    )
    return verdict, violation


def require_D_central(omega, d, m, exc, message):
    """exc(message), formatted with is_D_central's violation, unless omega is D-central."""
    ok, violation = is_D_central(omega, d, m)
    if not ok:
        raise exc(message.format(violation))


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
        found = lower[np.diff(eigs, axis=1) > cut[:, None]]
        dup_held, dup_found = _duplicates(held[:count], found)
        kept = []
        for c, p in enumerate(found):
            if count >= target:
                break
            if not (dup_held[c] or any(dup_found[c][k] for k in kept)):
                held[count] = p
                count += 1
                kept.append(c)
    held.flags.writeable = False
    return held[:count]


def _duplicates(held, found):
    """Which projections found in a batch lie within tol(1e-8) of one held before it, and of each
    other one found, as lists (c) and (c, c) of booleans, from one distance pass.

    A duplicate is a pair whose difference has HS norm at most tol(1e-8),
    the number hs_norms gives for it.  Each squared distance first comes from
    the Gram matrix, ||p||^2 + ||q||^2 - 2 Re <p, q>: for projections of M_n,
    ||p||^2 = Tr p <= n and |<p, q>| <= n, each a sum of n^2 products, so the
    value is within about 4 n^3 machine epsilons of the exact one, under
    1e-8 up to n = 200, and a pair above 1/4 there is more than 0.49 apart,
    no duplicate.  Only the pairs at or below it take the difference's norm,
    so every verdict is the one the differences with every held projection
    give.
    """
    n = held.shape[-1]
    pool = np.concatenate((held, found)).reshape(-1, n * n)
    rows = pool[len(held):]
    sq = hs_norms(pool) ** 2
    near = np.argwhere(sq[len(held):, None] + sq[None, :] - 2.0 * (rows.conj() @ pool.T).real <= 0.25)
    dup = np.zeros((len(rows), len(pool)), dtype=bool)
    dup[near[:, 0], near[:, 1]] = hs_norms(pool[near[:, 1]] - rows[near[:, 0]]) <= tol(1e-8)
    return dup[:, : len(held)].any(axis=1).tolist(), dup[:, len(held):].tolist()


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
    a chunk of projections at a time.  When D's rows are declared units E_ij
    (algebras._coordinate_mask) and M's are the identity rows, the
    pairing reads every entry of the stack, as in _central_violation, and
    p E_ij k - k E_ij p is p[:, i] k[j, :] - k[:, i] p[j, :]: the stack is
    gathered from the columns and rows of p and k, with no gemm, and its
    largest entry is the statistic.  Each entry is the same difference of
    two complex products; a BLAS kernel may fuse a multiply and an add in
    its own, so the two routes agree to the last bit of those products.

    When D's units are those of an equivalence relation's blocks, E_ji =
    E_ij* with (i, j) and (j, i) both units, and for Hermitian p and k,
    p E_ji k - k E_ji p = -(p E_ij k - k E_ij p)*: above _BLOCK_FROM
    (_unit_read) the units with i <= j are gathered alone, on k's Hermitian
    part (k + k*)/2, which p rho p is up to rounding.  Otherwise every unit
    is gathered.
    """
    db = d.space.tensor
    mask = _coordinate_mask(d)
    gather = mask is not None and _identity_rows(m.space)
    units = d.dim
    if gather:
        i, j = np.nonzero(mask)
        halve = _unit_read(d) is not None
        if halve:
            i, j = i[i <= j], j[i <= j]
        units = len(i)
    worst = 0.0
    # per projection: about four (units, n, n) stacks at once (the sandwiches, their difference
    # and its copy for the pairing; gathered, the two products and the buffers numpy fills to
    # broadcast them), counted as nine, so that each stack stays under the 128 KiB above which
    # malloc may map fresh pages on every call (diagnosis-mixed's n = 5..8 trials ran about 5 %
    # slower with stacks of twice that size); n <= 4 still takes one pass
    for part in chunk_slices(len(projections), 9 * units * d.n**2):
        p = projections[part]
        ks = p @ omega.density @ p
        if gather:
            if halve:
                ks = (ks + dagger(ks)) / 2
            worst = max(worst, _gathered_violation(p, ks, i, j))
            continue
        left = _sandwiches(p, db, ks) - _sandwiches(ks, db, p)
        worst = max(worst, float(np.abs(trace_pairings(left.reshape(-1, d.n, d.n), m.space.tensor)).max()))
    return worst


def _gathered_violation(p, k, i, j):
    """max |(p E_ij k - k E_ij p)[a, b]| = |p[a, i] k[j, b] - k[a, i] p[j, b]| over stacks p and k
    (c, n, n) and the units (i, j), from their columns and rows: two stacks, freed on return."""
    c, n, _ = p.shape
    left = np.empty((c, len(i), n, n), dtype=complex)
    right = np.empty_like(left)
    np.multiply(p.swapaxes(1, 2)[:, i, :, None], k[:, j, None, :], out=left)
    np.multiply(k.swapaxes(1, 2)[:, i, :, None], p[:, j, None, :], out=right)
    left -= right
    # the moduli go into right's memory, as contiguous floats
    return float(np.abs(left.ravel(), out=right.view(float).ravel()[: left.size]).max())


def _support_commutes(omega, d):
    """[e, D] = 0 for the support e of omega, to within 1e-9 on D's orthonormal basis; on D's
    units above _BLOCK_FROM each ||[e, E_ij]|| is read by index (_commutation_gap)."""
    return bool(_commutation_gap(omega.support, d) <= tol(1e-9))


def locally_central_check(omega, d, m, cap_proj=64):
    """Test omega(pxpdp) = omega(pdpxp) over sampled projections p in D.

    The statistic is the largest |Tr((p d k - k d p) x)|, k = p rho p, over
    the sampled p and the bases of D and M, formed as gemms: one for every
    p d, one batched over p for the right factors, one trace pairing with
    M's basis (on D's unit rows and M's identity rows, gathered from p and k
    with no gemm, and past _BLOCK_FROM on an equivalence relation's units
    only for the units E_ij with i <= j: _local_violation).  With the
    identity always in the sample
    this contains the global centrality identity; together with [e, D] = 0
    the verdict must match is_D_central, and a decisive mismatch is an
    internal fault.
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
    Each leak is the largest distance of an image of D's basis from span(D),
    read off n x n data on a coordinate D's units (_modular_leaks).
    """
    if not omega.is_faithful:
        raise NotFaithful("modular invariance needs a faithful density")
    log_rho = omega.spectrum.apply(np.log)
    worst, sampled_worst = _modular_leaks(omega, d, log_rho)
    threshold = tol(1e-8) * max(1.0, hs_norm(log_rho))
    sampled_threshold = tol(1e-8)
    return cross_check(
        "infinitesimal modular criterion contradicts the sampled flow", worst <= threshold,
        sampled_worst <= sampled_threshold, (worst, threshold), (sampled_worst, sampled_threshold),
    )


def _modular_leaks(omega, d, log_rho):
    """The largest distance from span(D) of [log rho, d] and of sigma_t(d) over t = 0.1, 1, pi, over
    D's basis d, for a faithful omega and log_rho its logarithm.

    On a D whose rows are the units E_ij of an equivalence relation's
    blocks (_unit_read), no image is formed.  With N the 0/1 matrix off the
    mask, L = log rho and |.|^2 taken entry by entry, [L, E_ij] leaves the
    span by L_ai at (a, j) and -L_jb at (i, b) off the mask, so its squared
    distance is (|L|^2^T N + N |L|^2^T)[i, j]; and sigma_t(E_ij) =
    U E_ij U*, U = rho^{it}, has entries U_ai conj(U_bj), so its squared
    distance is (S^T N S)[i, j] with S = |U|^2.  Every term is
    nonnegative, so nothing cancels, and the sums are the residuals' own
    squares in another order.
    """
    ts = (0.1, 1.0, np.pi)
    mask = _unit_read(d)
    if mask is None:
        db = d.space.tensor

        def leak(images):
            return float(d.space.residuals(images.reshape(d.dim, -1)).max(initial=0.0))

        return leak(log_rho @ db - db @ log_rho), max(leak(modular_group(omega, t)(db)) for t in ts)
    off = np.logical_not(mask).astype(float)

    def leak(squares):
        return float(np.sqrt(squares[mask].max()))

    def moduli(x):
        return x.real**2 + x.imag**2

    s = moduli(log_rho)
    flows = (moduli(_density_power_it(omega, t)) for t in ts)
    return leak(s.T @ off + off @ s.T), max(leak(f.T @ off @ f) for f in flows)


def pt_radon_nikodym(psi, phi):
    """Density h with psi(x) = phi(h^{1/2} x h^{1/2}), for psi commuting with phi.

    Exists exactly when the two densities commute; h is then the ratio
    of the densities and commutes with both.
    """
    if not phi.is_faithful:
        raise NotFaithful("the reference functional must be faithful")
    rp, rf = psi.density, phi.density
    check(DoesNotCommute, "densities do not commute (defect {:.3e}); no derivative exists",
          hs_norm(commutator(rp, rf)), tol(1e-9) * max(1e-30, hs_norm(rp) * hs_norm(rf)))
    root_inv = np.linalg.inv(psd_sqrt(rf))
    h = root_inv @ rp @ root_inv
    h = (h + dagger(h)) / 2
    hr = psd_sqrt(h)
    check(InvariantViolation, "derivative verification failed (defect {:.3e})",
          hs_norm(hr @ rf @ hr - rp), tol(1e-8) * max(1e-30, hs_norm(rp)))
    check(InvariantViolation, "derivative does not commute with the reference density",
          hs_norm(commutator(h, rf)), tol(1e-8) * max(1e-30, hs_norm(h) * hs_norm(rf)))
    return h


def connes_cocycle(psi, phi, t):
    """u_t = rho_psi^{it} rho_phi^{-it} for faithful psi, phi."""
    if not psi.is_faithful or not phi.is_faithful:
        raise NotFaithful("cocycle needs faithful functionals")
    return _density_power_it(psi, t) @ _density_power_it(phi, -t)
