"""Conditional expectations onto *-subalgebras of M_n.

One builder, _preserving_expectation, finds the omega-preserving map onto a
target algebra by one of two routes.

- Onto a D = u(sum_t M_k_t)u* with a block pattern without multiplicity,
  certified by algebras._mask_gap, with M = M_n and n >= 5 (_block_route),
  it is the closed form u [sum_t (y rho')_tt (rho'_tt)^-1] u*, y = u* x u
  and rho' = u* rho u, the block pinching when omega is D-central, kept as
  its r block factors (linalg.SandwichSum): no (dim D)^2 Gram matrix and no
  n^2 x n^2 map.
- Onto every other target (an unpatterned D, D', a support ideal Dz
  unless it is read off a coordinate D's mask, any D at n <= 4) it solves
  the Gram system in the omega-inner product (_gram_solve), the factor
  pair K = U^T C, kept as a linalg.FactorPair with domain M_n, q <= n rows
  and n >= 7 (_pair_route), else as the n^2 x n^2 matrix on row-major
  coordinates.

Either route needs omega faithful on the range only, which
states._faithful_spectrum decides on the Gram matrix's eigenvalues (for the
closed form, those of the blocks rho'_tt); a functional singular on the range is
compressed to the support of its restriction there
(support_ideal_expectation), never regularized.  A map that passed every
check is kept in the functional's store per (target, M)
(states.PositiveFunctional.derived) and returned to later builds.

How a map is stored is one linalg.MapStorage, held by _ModuleMap (shared
with representing.DCharacter) and asked for every statistic: validate()
checks unitality, idempotence, positivity on fixed probes, the D-bimodule
property (the commutators of a splitting's factors with D's basis, read in
D's unit frame at n >= 5 when D's rows are its pattern's units,
linalg.unit_frame_gaps) and range membership, in that order; the frame
reads and the storages' range certificates are bounds, with the exact
statistics as the fallback.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .algebras import (
    StarAlgebra,
    _coordinate_corner,
    _mask_classes,
    _mask_gap,
    _unit_frame,
    commutant,
    corner_algebra,
    full_matrix_algebra,
)
from .config import tol
from .errors import (
    DensityDoesNotCommute,
    DimensionMismatch,
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
    check,
    cross_check,
)
from .linalg import (
    _BLOCK_FROM,
    Corner,
    FactorPair,
    SandwichSum,
    _identity_rows,
    as_matrix,
    as_storage,
    chunk_slices,
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
    sandwich_matrix,
    sized_matrix,
    unit_frame_gaps,
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
    require_D_central,
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


def _check_preserves(e, omega, target):
    """omega∘E must have the density target (omega's own on the domain)."""
    drift = hs_norm(e.pullback_density(omega.density) - target)
    check(InvariantViolation, "preservation: omega∘E deviates from omega by {:.3e}",
          drift, tol(1e-8) * max(1.0, hs_norm(omega.density)))


class _ModuleMap:
    """A linear map from a domain algebra into a range subspace that is a module over the bimodule
    *-algebra: what ConditionalExpectation and representing.DCharacter share.

    The map is one storage (linalg.MapStorage: a MatrixMap, SandwichSum or
    FactorPair), which every statistic asks; apply (unchecked), norm,
    pullback_density and _idempotence_defect are its own methods.
    map_matrix and images (the map at the domain's basis) are formed on
    first request.  Each subclass's validate() picks the checks, their
    order and messages; none reads how the map is stored.
    """

    def __init__(self, map_matrix, domain, range_space, bimodule):
        self.storage = storage = as_storage(map_matrix, domain.space)
        self.apply, self.norm, self.pullback_density = storage, storage.norm, storage.pullback_density
        self._idempotence_defect = storage.idempotence_defect
        self.domain, self.range_space, self.bimodule, self.n = domain, range_space, bimodule, domain.n

    @functools.cached_property
    def map_matrix(self):
        """The map's n^2 x n^2 matrix, formed on first request, read-only."""
        k = self.storage.matrix()
        k.flags.writeable = False
        return k

    @functools.cached_property
    def images(self):
        """The map at the domain's orthonormal basis, as flat rows, read-only."""
        return self.storage.images(self.domain.space)

    def __call__(self, x):
        return self.apply(sized_matrix(x, self.n))

    def domain_values(self, rho):
        """Tr(rho K(x_j)) over the domain's orthonormal basis x_j."""
        return self.storage.domain_values(rho, self.domain.space)

    def module_gaps(self):
        """The exact (2, q) left and right module gaps (linalg.bimodule_gaps) at the bimodule algebra's basis."""
        return self.storage.module_gaps(self.bimodule.space.tensor)

    def _check_module(self, message, bound):
        """check every module gap, left then right per basis element, against bound.

        When the bimodule algebra's rows are its pattern's units
        (algebras._unit_frame) and the storage has a splitting, the gaps are
        first read in its unit frame (linalg.unit_frame_gaps): upper bounds,
        exact to rounding on a coordinate D.  When one does not pass, or with
        no frame, the exact route (module_gaps) decides, with its own error
        class, message and first failing element.  At n^4 <= _BLOCK_FROM
        (n <= 4) its few small products cost less than the frame's fixed work
        (20-76 us against 30-138 us per call at n = 2..4), so it is taken there.
        """
        split = self.storage.splitting
        frame = _unit_frame(self.bimodule) if self.n**4 > _BLOCK_FROM and split is not None else None
        gaps = None if frame is None else unit_frame_gaps(*split(self.bimodule.dim), frame)
        if gaps is None or not np.all(gaps <= bound):
            gaps = self.module_gaps()
        check(InvariantViolation, message, gaps.T, bound)

    def _moved(self, space):
        """||K(x_j) - x_j|| over a subspace's orthonormal rows x_j, a bounded chunk of rows at a time."""
        basis, width, moved = space.tensor, self.n**2, np.empty(space.size)
        # per row: its image and the difference
        for part in chunk_slices(space.size, 2 * width):
            moved[part] = hs_norms(self.apply(basis[part]).reshape(-1, width) - space.flat[part])
        return moved

    def _range_gap(self, norm, scale):
        """The HS norm of the images' residuals against the range, or the storage's certificate
        for it (range_bound) when that is at most half the range threshold tol(1e-8) scale."""
        bound = self.storage.range_bound(self.range_space.flat, self._range_classes, norm)
        limit = tol(1e-8) * scale / 2
        return bound if bound <= limit else self.storage.range_residual(self.range_space, self.domain.space)

    def _range_classes(self):
        """(_class_projections(D), _mask_gap(D)) when the range spans D, blocks without multiplicity."""
        d = self.bimodule
        if self.range_space is d.space and _mask_classes(d) is not None:
            return _class_projections(d), _mask_gap(d)


class ConditionalExpectation(_ModuleMap):
    """Idempotent positive bimodule map from a *-algebra onto a range inside it.

    The range is an operator subspace with its own unit: the ambient identity
    for genuine expectations, a projection z for the support-ideal maps onto
    Dz.  The bimodule algebra is the D whose elements pass through the map.

    The map comes as its n^2 x n^2 matrix, as the SandwichSum of its block
    factors E(x) = sum_t X_t x B_t or as the Gram FactorPair K = U^T C, the
    last two with the domain M_n.  validated turns true once validate() has passed.
    """

    def __init__(self, map_matrix, domain, range_space, unit, bimodule, check=True):
        super().__init__(map_matrix, domain, range_space, bimodule)
        self.unit = as_matrix(unit)
        self.validated = False
        if check:
            self.validate()

    def pullback(self, functional):
        """The functional x -> functional(E(x)) as a PositiveFunctional."""
        return PositiveFunctional(self.pullback_density(functional.density))

    @functools.cached_property
    def support(self):
        return support_of_map(self)

    def validate(self):
        """Unital, idempotent, positive on eight fixed probes, D-bimodule and onto the range,
        checked in that order by the same statistics on either storage (_ModuleMap)."""
        n = self.n
        norm = self.norm()
        scale = max(1.0, norm)
        check(InvariantViolation, "unital: E(I) misses the range unit by {:.3e}",
              hs_norm(self.apply(np.eye(n)) - self.unit), tol(1e-9) * max(1.0, hs_norm(self.unit)))
        check(InvariantViolation, "idempotent: E(E(x)) != E(x), defect {:.3e}",
              self._idempotence_defect(), tol(1e-9) * scale)
        xx, x_norms = _positivity_probes(n)
        y = self.apply(xx)
        y = (y + dagger(y)) / 2
        check(InvariantViolation, "positive: E(x*x) has eigenvalue -{:.3e}",
              -np.linalg.eigvalsh(y)[:, 0], tol(1e-8) * x_norms)
        # per basis element d: the left gap, then the right one
        self._check_module("bimodule: module property fails by {:.3e}", tol(1e-8) * scale * np.sqrt(n))
        check(InvariantViolation, "range: output leaves the range span by {:.3e}",
              self._range_gap(norm, scale), tol(1e-8) * scale)
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
    the expectation.  Both the centrality verdict and the validated map are
    kept in omega's store (is_D_central, _preserving_expectation), so later
    calls on the same omega, D and M, and an existence_diagnosis before
    them, return the same object, read-only; a failure keeps nothing and
    raises again with its own class and message.
    """
    require_D_central(omega, d, m, NotDCentral, "omega is not D-central (violation {:.3e})")
    try:
        return _preserving_expectation(omega, d, m)
    except GramSingular as err:  # this entry point names D in its message
        raise GramSingular("omega is not faithful on D") from err


def _require_faithful_spectrum(eigs):
    """GramSingular unless the ascending eigenvalues of the Gram matrix pass _faithful_spectrum."""
    if not _faithful_spectrum(eigs):
        raise GramSingular(
            f"functional is not faithful on the span (Gram eigenvalues {eigs[0]:.3e}..{eigs[-1]:.3e})"
        )


def _gram_solve(omega, space):
    """The map k onto the space with omega(b* k(x)) = omega(b* x) for b in it, as its factor pair
    K = U^T C (linalg.FactorPair): U the space's rows and C = G^-1 times the pairing rows
    x -> omega(b_a* x).  One eigh of the Gram matrix G = omega(b_a* b_c) feeds
    _faithful_spectrum (GramSingular if not faithful) and the inverse; the pair's
    matrix() is the n^2 x n^2 map."""
    gram, rows = _omega_gram(omega, space.tensor)
    eigs, u = np.linalg.eigh(gram)
    _require_faithful_spectrum(eigs)
    coef = ((u / eigs) @ dagger(u)) @ rows
    coef.flags.writeable = False
    return FactorPair(space.flat, coef)


# the largest _mask_gap of a range solved in closed form: below it the range check's
# certificate, 3 _mask_gap ||K||_F against half its threshold, passes for every map
_BLOCK_GAP = tol(1e-8) / 6

def _block_route(target, m):
    """True when _preserving_expectation solves onto the target in closed form: M is all of
    M_n with n^4 above _BLOCK_FROM, and the target's pattern has blocks without multiplicity
    and a _mask_gap of at most _BLOCK_GAP."""
    return (m.n**4 > _BLOCK_FROM and m.dim == m.n**2 and _mask_classes(target) is not None
            and _mask_gap(target) <= _BLOCK_GAP)


# the n^4 entries of the map above which the Gram factor pair pays: below, at n <= 6, the dense
# route's few products on at most 1296 entries cost less than the pair's fixed per-call work
# (onto D' of a rotated D without multiplicity, three D per size, interleaved minima, build and
# validation took 1.01-1.37 times the dense route's time at n = 2..6, once 0.88 at n = 3,
# 0.59-0.88 at n = 7 and 8 and 0.08-0.49 at n = 9..16)
_PAIR_FROM = 1 << 11


def _pair_route(pair, m):
    """True when the expectation keeps its Gram factor pair rather than the n^2 x n^2 matrix: the
    domain M is all of M_n (the pair's checks assume P = I), n^4 is above _PAIR_FROM and the
    range has q <= n rows.

    Per build and validate(), the matrix costs q n^4 to form, n^6 for its
    idempotence product and O(q n^5) for its module gaps; the pair applies at
    O(q n^2) per matrix and checks at O(q^2 n^3 + q^3 n^2), at most 2 n^5 for
    q <= n (D' of a D without multiplicity has q = r <= n), in many small
    numpy calls whose fixed cost the dense work passes at n = 7 (_PAIR_FROM).
    """
    return m.n**4 > _PAIR_FROM and pair.count <= m.n and _identity_rows(m.space)


def _class_projections(alg):
    """The stacked f_t = u p_t u*, p_t the diagonal projection onto mask class t of a patterned
    *-algebra with blocks without multiplicity; read-only, in its derived store."""

    def compute():
        u, mask = alg.pattern
        f = mask[[idx[0] for idx in _mask_classes(alg)]][:, :, None] * np.eye(alg.n, dtype=complex)
        f = f if u is None else u @ f @ dagger(u)
        f.flags.writeable = False
        return f

    return alg.derived("class projections", compute)


def _block_factors(omega, target):
    """The omega-preserving expectation onto D = u(sum_t M_k_t)u* in closed form, as a SandwichSum.

    With rho = omega's density, rho' = u* rho u and y = u* x u, the solution
    of the Gram system is E(x) = u [sum_t (y rho')_tt (rho'_tt)^-1] u*, the
    block pinching when rho is D-central (Umegaki 1954; Takesaki, J. Funct.
    Anal. 9, 1972): for the unit u E_ij u* of block t, omega(b* E(x)) =
    (E' rho')_ij must equal (y rho')_ij, with E' = u* E(x) u.  Written out,
    E(x) = sum_t X_t x B_t with X_t = u P_t u* (_class_projections),
    B_t = u W_t u* and W_t = rho'[:, I_t] (rho'_tt)^-1 placed in the columns I_t of block t.
    The Gram matrix of D's rotated units is sum_t I_k_t (x) (rho'_tt)^T, so
    its eigenvalues are those of the blocks rho'_tt: one eigh of the n x n
    block diagonal part of rho' gives their union, on which _faithful_spectrum
    decides faithfulness as on _gram_solve's, and GramSingular carries the same
    message; the same eigh inverts every block at once.

    The map is the Gram route's exactly for a unitary u and a D that is
    u B u*.  Otherwise D lies within delta = _mask_gap(D) of P = v B v*, v
    the unitary polar factor of u, and the two maps differ by at most
    4 n kappa^(3/2) delta in Frobenius norm, to first order in delta, with
    kappa = ||rho|| / lambda and lambda the least eigenvalue of the rho'_tt.
    With lambda_S the least omega(s*s) over the unit elements of a
    *-algebra S and |omega(a* b)| <= ||rho|| ||a|| ||b||:
    - ||E_S x||^2 lambda_S <= omega(e* e) = omega(e* x) <= (omega(e* e)
      omega(x* x))^(1/2), e = E_S x, so ||E_S|| <= kappa_S^(1/2);
    - with e = E_D x = p + r, p in P, ||r|| <= delta ||e||, f = E_P x and
      b = d + s a unit of P, d in D, ||s|| <= delta: omega(b* (f - p)) =
      omega(s* (x - e)) + omega(b* r) is at most ||rho|| delta (||x|| + 2 ||e||),
      so g = f - p has ||g|| <= kappa_P delta (1 + 2 kappa_D^(1/2)) ||x|| and
      ||f - e|| <= ||g|| + ||r|| <= 4 kappa^(3/2) delta ||x||.
    The Frobenius norm of a map on M_n is at most n times its operator norm,
    and u's defect, at most _UNITARY_DEFECT <= delta / 3, moves the closed
    form by the same order.
    """
    u, mask = target.pattern
    rho = omega.density
    rotated = rho if u is None else dagger(u) @ rho @ u
    # sum_t rho'_tt in place, whose spectrum is the union of the blocks' and whose inverse is theirs
    pinched = rotated * mask
    eigs, v = np.linalg.eigh((pinched + dagger(pinched)) / 2)
    _require_faithful_spectrum(eigs)
    # [W_1 ... W_t ...] side by side, the rounding of the inverse off the blocks dropped
    solve = rotated @ (((v / eigs) @ dagger(v)) * mask)
    blocks = mask[[idx[0] for idx in _mask_classes(target)]]  # row t: the indicator of I_t
    right = solve * blocks[:, None, :] if u is None else ((u @ solve) * blocks[:, None, :]) @ dagger(u)
    right.flags.writeable = False
    return SandwichSum(_class_projections(target), right)


def _preserving_expectation(omega, target, m, check=True):
    """The one builder: the omega-orthogonal projection of M onto the target subalgebra.

    Solves for the map, builds it, validates it and checks that it preserves
    omega.  Onto a target that _block_route admits the solution is the closed
    form, kept as its block factors (_block_factors); onto every other target,
    the corners, D' and Dz among them, it is the Gram system (_gram_solve),
    kept as its factor pair where _pair_route admits it, else as its matrix.
    The D-centrality gate is preserving_expectation's; without it, validation
    decides whether the solution is an expectation (exactly when the modular
    flow of omega leaves the target invariant).  check=False skips the
    validation for a caller that validates what it makes of the map; the other
    checks always run.

    A map built with check=True that passed every check is kept in omega's
    store per (target, M) and returned to every later call, by the tracial
    and the state pipeline alike: E_D(omega) and the average onto D' are
    built once per functional.  Its storage, map_matrix and images are
    read-only, so it is the map a rebuild would give, bit for bit.  What
    raised is not kept, nor is a check=False build, which is not read from
    the store either.  Its storage is its route's: factors above _BLOCK_FROM
    or _PAIR_FROM, else an n^4 matrix, which q > n rows take too.
    """

    def build():
        if _block_route(target, m):
            k = _block_factors(omega, target)
        else:
            k = _gram_solve(omega, target.space)
            if not _pair_route(k, m):
                k = k.matrix()
        e = ConditionalExpectation(k, m, target.space, np.eye(m.n), target, check)
        _check_preserves(e, omega, omega.restricted_density(m))
        return e

    return omega.derived(("expectation", target, m), build) if check else build()


def expectation_from_density(h, d, m, nu):
    """E(x) = E_D(h^{1/2} x h^{1/2}) for a positive h commuting with D and rho_nu,
    normalized by E_D(h) = I, where E_D is the nu-preserving expectation onto D."""
    h = as_matrix(h)
    h_spec = eigh_hermitian(h)
    h_scale = h_spec.norm
    check(NotPositiveDefinite, "density must be positive semidefinite (min eig -{:.3e})",
          -h_spec.eigenvalues[0], pd_tol(max(h_scale, 1e-30)))
    if not m.contains(h):
        raise InvariantViolation("density must lie in the algebra")
    check(DensityDoesNotCommute, "[h, D] = {:.3e}",
          commutation_gap(h, d.space.tensor), tol(1e-9) * max(1.0, h_scale))
    check(DensityDoesNotCommute, "[h, rho_nu] = {:.3e}",
          hs_norm(commutator(h, nu.density)), tol(1e-9) * max(1.0, h_scale * hs_norm(nu.density)))
    e_d = preserving_expectation(nu, d, m)
    check(NotNormalized, "E_D(h) differs from the identity by {:.3e}",
          hs_norm(e_d(h) - np.eye(m.n)), tol(1e-8) * np.sqrt(m.n))
    hr = psd_sqrt(h)
    e = ConditionalExpectation(e_d.map_matrix @ sandwich_matrix(hr, hr), m, d.space, np.eye(m.n), d)
    sigma = e.pullback_density(nu.density)
    want = m.project(hr @ nu.density @ hr)
    check(InvariantViolation, "nu∘E does not match the h-deformed functional",
          hs_norm(sigma - want), tol(1e-8) * max(1.0, hs_norm(want)))
    return e


def _modular_gaps(e, nu):
    """The statistics of commutes_with_modular, read off the domain's basis x_j.

    ||E([log rho, x_j]) - [log rho, E(x_j)]||, which is ||(K ad - ad K) P||_F;
    ||ad||_F from the eigenvalues of rho; the largest ||E(u x_j u*) - u E(x_j) u*||
    and ||P(u* sigma u) - sigma|| over u = rho^(it) at the sampled times, where
    sigma, returned last, is the density of nu∘E and P(u* sigma u) that of
    x -> nu(E(u P(x) u*)) on a *-algebra domain.
    """
    x = e.domain.space.tensor
    y = e.images.reshape(x.shape)
    v = nu.spectrum.eigenvectors
    log_eigs = np.log(nu.spectrum.eigenvalues)
    log_rho = nu.spectrum.apply(np.log)
    inf_stat = hs_norm(e.apply(commutator(log_rho, x)) - commutator(log_rho, y))
    ad_norm = hs_norm(log_eigs[:, None] - log_eigs[None, :])
    sigma = e.pullback_density(nu.density)
    # u = rho^(it) at the three sampled times, stacked; the map sees one time at a
    # time, so that no more than one image stack of the domain basis is held
    u = (v * np.exp(1j * np.array([0.1, 1.0, np.sqrt(2.0)])[:, None] * log_eigs)[:, None]) @ dagger(v)
    u_star = dagger(u)
    sampled_map = max(hs_norm(e.apply(w @ x @ w_star) - w @ y @ w_star) for w, w_star in zip(u, u_star))
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
    scale = max(1.0, e.norm())
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
    check(InvariantViolation, "derivative does not commute with D ({:.3e})",
          commutation_gap(h, e.bimodule.space.tensor), tol(1e-8) * max(1.0, hs_norm(h)))
    return h


def _values_on(functional, rows):
    """The functional on each flattened matrix x in rows (k, n^2): Tr(rho x) = <vec(x), vec(rho^T)>."""
    return rows @ functional.density.T.ravel()


def _check_values(exc, message, functional, rows, want, rel):
    """check that the functional takes the values want on the flattened matrices in rows,
    each to within rel times max(1, |want|)."""
    check(exc, message, np.abs(_values_on(functional, rows) - want), tol(rel) * np.maximum(1.0, np.abs(want)))


def average_to_central(psi, omega, d, m):
    """Replace a state extension psi of omega|D by a D-central one.

    Pushes psi through the omega-preserving projection onto the relative
    commutant of D; the result still extends omega|D and is D-central, and
    commutation with omega (of the densities restricted to M) is inherited.
    DimensionMismatch first when psi, omega, D and M differ in size.
    """
    require_same_ambient(omega, d, m)
    if psi.n != omega.n:
        raise DimensionMismatch(f"psi acts on M_{psi.n}, omega on M_{omega.n}")
    if omega.is_faithful:  # else _average_to_central raises NotFaithful, which takes precedence
        require_D_central(omega, d, m, NotCentral, "D is not inside the centralizer of omega (violation {:.3e})")
    return _average_to_central(psi, omega, d, m)


def _average_to_central(psi, omega, d, m):
    """average_to_central past its D-centrality gate, which the caller settled."""
    if not omega.is_faithful:
        raise NotFaithful("averaging needs a faithful reference functional")
    want = _values_on(omega, d.space.flat)
    _check_values(NotAnExtension, "psi does not restrict to omega on D", psi, d.space.flat, want, 1e-8)
    e = _preserving_expectation(omega, commutant(d, m), m)
    result = e.pullback(psi)
    _check_values(InvariantViolation, "averaged functional no longer extends omega on D",
                 result, d.space.flat, want, 1e-7)
    require_D_central(result, d, m, InvariantViolation, "averaged functional is not D-central (violation {:.3e})")
    r_psi = psi.restricted_density(m)
    r_omega = omega.restricted_density(m)
    pair_scale = max(1e-30, hs_norm(r_psi) * hs_norm(r_omega))
    if hs_norm(commutator(r_psi, r_omega)) <= tol(1e-9) * pair_scale:
        check(InvariantViolation, "commutation with omega was not inherited ({:.3e})",
              hs_norm(commutator(result.restricted_density(m), r_omega)), tol(1e-7) * pair_scale)
    return result


def _support_gaps(e, z):
    """||E(x_j) - E(z x_j z)|| and ||z E(x_j) - E(x_j) z|| over the domain's basis x_j:
    ||(K - K S_z) P||_F and ||(L_z - R_z) K P||_F for K the map's matrix, S_z, L_z, R_z
    the matrices of x -> zxz, zx, xz and P the domain projection.  On identity rows E_ab
    (linalg._identity_rows) z E_ab is row ab of kron(z^T, I), whose products by exact 0s and 1s
    give the product's entries, a zero's sign aside, and no row of M_n is written.  No n^4
    stack outlives the statistic it serves."""
    n, x = e.n, e.domain.space
    y = e.images.reshape(-1, n, n)
    gap = hs_norm(y - e.apply(
        (sandwich_matrix(z.T, np.eye(n)).reshape(y.shape) if _identity_rows(x) else z @ x.tensor) @ z))
    return gap, hs_norm(z @ y - y @ z)


def support_of_map(e):
    """Smallest projection z with E(x) = E(zxz) for an expectation E; support of the trace pullback.

    For idempotent maps the support also commutes with every output.  A
    validated expectation is idempotent; any other is tested for it first.
    """
    w_spec = eigh_hermitian(e.pullback_density(np.eye(e.n, dtype=complex)))
    z = w_spec.support(pd_tol(w_spec.norm))
    scale = max(1.0, e.norm())
    gap, side = _support_gaps(e, z)
    check(InvariantViolation, "support identity E(x) = E(zxz) fails by {:.3e}", gap, tol(1e-8) * scale)
    if e.validated or e._idempotence_defect() <= tol(1e-6) * scale:
        check(InvariantViolation, "support does not commute with the outputs ({:.3e})", side, tol(1e-8) * scale)
    return z


def support_ideal_expectation(omega, d, m):
    """Expectation onto the ideal Dz, z the support of omega|D, for omega not
    faithful on D.  Compress to z, build the preserving expectation there,
    and lift; the result is the unique omega-preserving D-module map with
    support below z, which a second, direct Gram construction confirms.
    The compressed functional is faithful on Dz but may still be singular
    on zMz; the Gram system on Dz determines the compressed map all the
    same.  EmptyInput when omega vanishes on D, so that z = 0.  When M is
    all of M_n (identity rows), zMz is all of M_r and is taken as
    full_matrix_algebra(r), with no SVD of the compressed rows; when D's
    rows are its coordinate pattern's units and the support's isometry has
    exact coordinate columns, Dz is the sub-mask's units, with no SVD either
    (algebras._coordinate_corner, as corner_algebra builds it).  The map
    returned is built afresh on every call and is not kept in omega's store.

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
    require_D_central(omega, d, m, NotDCentral, "omega is not D-central (violation {:.3e})")
    corner = Corner(omega.support_isometry_in(d))
    z = corner.projection
    check(SupportNotCentral, "support of omega|D is not central in D ([z,d] = {:.3e})",
          commutation_gap(z, d.space.tensor), tol(1e-9) * max(1.0, hs_norm(z)))
    if _identity_rows(m.space):  # zM_nz is all of M_r
        m_z = full_matrix_algebra(corner.rank)
    else:
        m_z = StarAlgebra(orthonormalize(corner.compress_rows(m.space.flat)), check=False)
    d_z = _coordinate_corner(d, corner)
    if d_z is None:
        d_z = StarAlgebra(orthonormalize(corner.compress_rows(d.space.flat)), check=False)
    omega_z = PositiveFunctional(corner.compress(omega.density), check=False)
    f = _preserving_expectation(omega_z, d_z, m_z, check=False)
    # xz = v (v* x v) v* for x in D
    range_space = corner.lift_space(d_z.space)
    e = ConditionalExpectation(corner.lift_map(f.map_matrix), m, range_space, z, d)
    _check_preserves(e, omega, omega.restricted_density(m))
    # uniqueness: an independent Gram solve on the ideal must take the same values on M; on
    # identity rows the product is exact and is the matrix's transpose (linalg.MatrixMap)
    gram = _gram_solve(omega, range_space)
    mismatch = hs_norm(e.images - (gram.matrix().T if _identity_rows(m.space) else m.space.flat @ gram.matrix().T))
    check(InvariantViolation, "the two support-ideal constructions disagree by {:.3e}",
          mismatch, tol(1e-7) * max(1.0, e.norm()))
    support = support_of_map(e)
    check(InvariantViolation, "map support is not dominated by the ideal support",
          hs_norm(support @ z - support), tol(1e-8))
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
    raise DimensionMismatch before any probe runs.  The centrality verdict
    and a constructed expectation are kept in omega's store, so a later
    preserving_expectation, support_ideal_expectation or representing
    pipeline on the same omega, D and M reads them; report.expectation is
    the object preserving_expectation returns.
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
        d_c = corner_algebra(d, corner)
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
