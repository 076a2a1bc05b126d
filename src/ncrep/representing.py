"""Characters on triangular-type subalgebras and their representing expectations.

Given an inclusion D <= A <= M with D a *-subalgebra, A merely a subalgebra,
and a character Phi : A -> D (unital, multiplicative, fixes D, D-bimodule),
the pipelines here produce a conditional expectation Psi : M -> D with
Psi|_A = Phi together with a state rho that Psi preserves.  rho acts as a
noncommutative representing measure: it agrees with the reference functional
composed with Phi on all of A, which forces it to annihilate ker(Phi).

The core construction (_represented_factor) matches a density r for the
functional x -> ref(Phi(x)) on A, factors r = a b* by polar decomposition,
and projects b onto the left multiples of a by A.  The projected factor c
satisfies Tr(j c c*) = 0 for every j in ker(Phi) because ker(Phi)c lands
inside the multiples of a by the kernel, which b (hence c) is orthogonal
to.  Conjugating cc* into a properly normalized density and averaging over
the relative commutant of D yields rho (_central_extension).

Each step reads the structure its objects carry, with its dense route as
the fallback.  A block character is kept as its block factors (_pinching),
with no n^2 x n^2 matrix; its kernel is read off the masks (_mask_kernel)
and its multiplicativity bounded from its defects on the rotated matrix
units (_multiplicative_from_defects): no SVD and no product of two basis
elements or units.  Its per-unit checks are read in the unit frame of the
pattern (u, mask) that A and D share (algebras._unit_frame): the factors
are conjugated once per character, L'_t = u* L_t u and R'_t = u* R_t u, at
O(r n^3) (DCharacter._frame_factors), and u* Phi(u E_ij u*) u =
sum_t L'_t[:, i] R'_t[j, :] is read per unit by index for the unit defects
(_rotated_unit_images), D's fix (DCharacter.fix), J's tau (_mask_kernel)
and, for Psi - Phi, the extension check (_extension_bound); the module
gaps are read the same way (expectations._ModuleMap._check_module) and D
inside A off the masks (algebras._inclusion_gap), so validate() multiplies
by no basis element and forms no image of A's basis.  Each frame read is an
upper bound that decides only when it passes; otherwise the exact route
decides, with its own message.  The matching reads the functional's values on Phi's images of
A's basis from Phi's trace pre-adjoint (DCharacter.domain_values) and is
r = sum_j (v_j / c) x_j* over A's orthonormal rows for a scalar weight c I
(_matched_density); b is projected one mask-row class of a patterned A at
a time (_projected_rows); the average onto D' keeps its Gram factor pair
(expectations._pair_route).
"""

import functools
import math

import numpy as np

from .algebras import (
    _block_algebra,
    _inclusion_gap,
    _mask_classes,
    _mask_gap,
    _mask_rows,
    _off_mask,
    _pattern_coordinates,
    _rotated_units,
    _same_rotation,
    _sum_dimension,
    _unit_frame,
    _units_in_order,
    block_diagonal_algebra,
    check_ss_density,
    diagonal_part_check,
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
    check,
)
from .expectations import (
    _ModuleMap,
    _average_to_central,
    _check_values,
    _class_projections,
    _preserving_expectation,
    _values_on,
    preserving_expectation,
)
from .linalg import (
    _BLOCK_FROM,
    OperatorSubspace,
    SandwichSum,
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
    subspace_sum,
)
from .states import PositiveFunctional, _faithful_on, require_D_central, require_same_ambient, require_tracial

# condition-number cap for inverting the D-average of cc*; it is invertible in
# exact arithmetic, so anything beyond this is a numerical failure to report
G_CONDITION_CAP = 1e12


class DCharacter(_ModuleMap):
    """Unital multiplicative D-bimodule map Phi from a subalgebra A onto D <= A.

    Phi comes as its n^2 x n^2 matrix, composed with the projection onto
    span(A), or as factors (_pinching), kept by expectations._ModuleMap with
    Phi on A's orthonormal basis as the rows of images.  The kernel
    J = ker(Phi) complements D inside A (A = J + D) with D J D <= J: the
    part of A a representing functional has to annihilate.

    When A and D carry patterns with one u, J is read off the masks: the
    rotated units u E_s u* with s on A's mask but off D's, certified by
    Phi's norm on them (_mask_kernel), and kernel_tau keeps that norm for
    the splitting check.  Otherwise, or when the certificate does not pass,
    J is the null space of the images, and kernel_tau is None.

    validate() decides multiplicativity pair by pair on A's orthonormal
    basis.  On a patterned A it first bounds every pair from the defects of
    Phi on the rotated matrix units (_multiplicative_from_defects), with no
    product of two units; only when that bound does not pass are the basis
    products formed, so the error class, the message and the first failing
    check stay those of the pairwise route.
    """

    def __init__(self, map_matrix, domain, range_alg, check=True):
        super().__init__(map_matrix, domain, range_alg.space, range_alg)
        self.range_alg = range_alg
        self.blocks = None
        found = _mask_kernel(self)
        if found is None:
            # a combination c of A's basis lies in J when c times the images vanishes
            self.kernel = OperatorSubspace(self.n, null_space_rows(self.images.T) @ domain.space.flat)
            self.kernel_tau = None
        else:
            self.kernel, self.kernel_tau = found
        if check:
            self.validate()

    @functools.cached_property
    def fix(self):
        """||Phi(d_s) - d_s|| over D's orthonormal rows d_s, or upper bounds on them that pass the
        fix check, formed on first request.

        For block factors (a SandwichSum) at n^4 > _BLOCK_FROM, on a D whose
        rows are its pattern's units (algebras._unit_frame), Phi is read at the
        units with no image of D's rows.  Let f_s = u E_s u*, h = u*u,
        eta = ||h - I|| and Phi' the factors conjugated by u
        (SandwichSum.conjugated), so that u* Phi(f_s) u = Phi'(E_s), read at
        O(r n^2) per unit (SandwichSum.at_units), and u* f_s u = h E_s h.
        - A coordinate D (u None) has d_s = E_s: the value is ||Phi(E_s) - E_s||
          itself, the stack route's numbers (for the block pinching, bit for
          bit: every product is by an exact 0 or 1).
        - Otherwise ||X|| <= ||u^-1||^2 ||u* X u|| with ||u^-1||^2 <= 1 / (1 - eta),
          and ||h E_s h - E_s|| <= ||(h - I) E_s h|| + ||E_s (h - I)|| <= eta (2 + eta),
          so each row is bounded by
              ||Phi(f_s) - f_s|| <= (||Phi'(E_s) - E_s|| + eta (2 + eta)) / (1 - eta),
          and these bounds are kept when every one is at most tol(1e-8), the
          least of validate's thresholds.
        When a bound does not pass, and for any other map, the images of D's
        rows decide (_moved), so a failure reports the exact value.  Every
        reader takes ||fix|| as an upper bound on F, the HS norm of Phi - id over
        D's rows (_mask_kernel, _splitting_certified,
        algebras._intersection_certified); the reads' rounding, O(r) machine
        epsilons per entry against the stack's O(n), lies in the half of each
        threshold those leave for it.
        """
        d = self.range_alg
        frame = _unit_frame(d) if self.n**4 > _BLOCK_FROM and isinstance(self.factors, SandwichSum) else None
        if frame is not None:
            u, rows, cols, eta = frame
            rotated = self._frame_factors if _same_rotation(self.domain, d) else self.factors.conjugated(u)
            moved = np.empty(d.dim)
            # per unit: its image, less the unit in place, and the factors' columns and rows it reads
            for part in chunk_slices(d.dim, 2 * self.n**2):
                images = rotated.at_units(rows[part], cols[part])
                images[np.arange(len(images)), rows[part], cols[part]] -= 1.0
                moved[part] = hs_norms(images)
            if u is None:
                return moved
            moved = (moved + eta * (2.0 + eta)) / (1.0 - eta)
            if eta < 1.0 and np.all(moved <= tol(1e-8)):
                return moved
        return self._moved(d.space)

    @functools.cached_property
    def _frame_factors(self):
        """The factors conjugated by A's u (SandwichSum.conjugated), formed once for every frame read."""
        return self.factors.conjugated(self.domain.pattern[0])

    def validate(self):
        n = self.n
        eye = np.eye(n, dtype=complex)
        check(InvariantViolation, "unital: Phi(I) misses I by {:.3e}",
              hs_norm(self(eye) - eye), tol(1e-9) * np.sqrt(n))
        d_flat = self.range_alg.space.flat
        d_norms = hs_norms(d_flat)
        allowed = tol(1e-8) * np.maximum(1.0, d_norms)
        # D inside A read off the masks, else measured (NaN or inf fails)
        outside = _inclusion_gap(self.domain, self.range_alg) * d_norms
        if not np.all(outside <= allowed):
            outside = self.domain.space.residuals(d_flat)
        fix = self.fix
        # the first failing basis element decides which of the two is reported
        for gap, moved, bound in zip(outside.tolist(), fix.tolist(), allowed.tolist()):
            check(InvariantViolation, "range: D is not inside A", gap, bound)
            check(InvariantViolation, "fixes D: Phi moves a D element by {:.3e}", moved, bound)
        k_norm = self.norm()
        scale = max(1.0, k_norm)
        check(InvariantViolation, "range: Phi output leaves span(D) by {:.3e}",
              self._range_gap(k_norm, scale), tol(1e-8) * scale)
        self._check_multiplicative(k_norm)
        # per basis element d: the left gap, then the right one
        self._check_module("bimodule: Phi(d x d') != d Phi(x) d' by {:.3e}", tol(1e-8) * scale * np.sqrt(n))
        if self.kernel.size + self.range_alg.dim != self.domain.dim:
            raise InvariantViolation(
                f"splitting: dim J + dim D = {self.kernel.size} + {self.range_alg.dim}"
                f" != dim A = {self.domain.dim}"
            )
        # tau as J's mask certificate found it, else Phi's norm over J's orthonormal rows
        tau = self.kernel_tau if self.kernel_tau is not None else hs_norm(self.apply(self.kernel.tensor))
        if not _splitting_certified(tau, hs_norm(fix), k_norm) and (
            subspace_sum(self.kernel, self.range_alg.space).size != self.domain.dim
        ):
            raise InvariantViolation("splitting: J and D overlap")
        # eight random elements of A, each drawn as its real then its imaginary coordinates
        parts = np.random.default_rng(1).standard_normal((8, 2, self.domain.dim))
        x = ((parts[:, 0] + 1j * parts[:, 1]) @ self.domain.space.flat).reshape(8, n, n)
        sizes = np.linalg.norm(np.stack([x, self.apply(x)]), 2, axis=(2, 3))
        check(InvariantViolation, "contractive: operator norm grows by {:.3e}",
              sizes[1] - sizes[0], tol(1e-8) * np.maximum(1.0, sizes[0]))

    def _check_multiplicative(self, k_norm):
        """Multiplicativity: bounded from the unit defects of a patterned A, else pair
        by pair on A's orthonormal basis.  k_norm is Phi's Frobenius norm."""
        if _multiplicative_from_defects(self, k_norm):
            return
        n = self.n
        b = self.domain.space.tensor
        images = self.images.reshape(-1, n, n)
        # all products x_a x_b and Phi(x_a) Phi(x_b), a chunk of a's at a time; per a, four
        # (dim A, n^2) arrays: both products, the image of the first and the defect
        for part in chunk_slices(len(b), 4 * len(b) * n * n):
            prods = pair_products(b[part], b).reshape(-1, n, n)
            want = pair_products(images[part], images).reshape(-1, n, n)
            check(InvariantViolation, "multiplicative: Phi(xy) != Phi(x)Phi(y), defect {:.3e}",
                  hs_norms(self.apply(prods) - want), tol(1e-8) * np.maximum(1.0, hs_norms(prods)))


def _splitting_certified(tau, fixed, kappa):
    """True when J = ker(Phi) and D are independent beyond what the SVD of their
    stacked rows in validate could miss, with no SVD.

    tau is the HS norm of Phi over J's orthonormal rows, fixed = F the HS
    norm of Phi - id over D's, and kappa is at least Phi's norm (its
    Frobenius norm will do).  A unit combination (c, g) of the stacked rows gives
    z = j + d with ||j|| = ||c||, ||d|| = ||g||.  From d = Phi(z) - Phi(j)
    - (Phi(d) - d), ||g|| <= kappa ||z|| + tau + F, and ||c|| <= ||z|| + ||g||;
    as ||c|| + ||g|| >= 1,
        ||z|| >= (1 - 2 (tau + F)) / (1 + 2 kappa).
    The SVD keeps every direction once that is at least 2 tol(1e-9): its
    cutoff is tol(1e-9) times the largest row norm, about 1, and half the
    margin absorbs its rounding, O(n^2) machine epsilons.  No mask is needed.
    """
    return bool((1.0 - 2.0 * (tau + fixed)) / (1.0 + 2.0 * kappa) >= 2.0 * tol(1e-9))


# the largest lambda = delta_A + 3 eta at which _mask_kernel keeps the units off D's mask as J
_KERNEL_GAP = tol(1e-8) / 8


def _mask_kernel(phi):
    """(J, tau) with J = ker(Phi) spanned by the rotated units f_s = u E_s u*, s on A's mask
    but off D's, and tau = ||Phi over them||; None when the masks do not give those units
    or the bound below fails, and the null space of the images decides.

    A and D carry one u, dim A and dim D are their masks' sizes, and
    k + dim D = dim A for the k units; eta = ||u*u - I|| <= _UNITARY_DEFECT
    and delta_A = _mask_gap(A).  Let T be c -> Phi(sum c_j x_j) on A's
    orthonormal coordinates: null_space_rows of the images finds the right
    singular vectors of T below tol(1e-9) max(1, sigma_1), with
    sigma_1 <= ||T|| <= kappa, the map's Frobenius norm.  Phi = Phi∘Q_A
    for a matrix, and within kappa lambda^2 <= 2e-18 kappa on the units for
    block factors (_pinching), far inside the rounding share below.
    - The units are orthonormal up to eta (2 + eta) <= 3 eta, and a unit
      combination c = u y u* of them lies within 3 eta of v y v* in
      P = v B v* (v the unitary polar factor of u), hence within
      lambda = delta_A + 3 eta of A.  So W = Q_A span(f_s) has dimension
      k, and a unit w in W has ||T w|| <= tau' = tau / (1 - 2 lambda).
    - For a unit d of D, whose rows are orthonormal up to 3 eta as well,
      ||Phi(d)|| >= ||d|| - F >= 1 - 3 eta - F, F = ||fix||, and
      ||Q_A d|| <= 1 + 3 eta: T is at least sigma = (1 - F - 3 eta) /
      (1 + 3 eta) on the dim D-dimensional Q_A D.
    By Courant-Fischer T then has k singular values at most tau' and
    dim A - k at least sigma.  With tau' <= tol(1e-9) / 2 and
    sigma >= 2 tol(1e-9) max(1, kappa) the null space keeps exactly k
    directions, with half of its cutoff left for rounding on either side.
    It lies within tau' / sigma of W (each unit w in W has ||T w|| >=
    sigma times its part off the null space), and W within 2 lambda of the
    units' span, so same_subspace holds with half its tolerance left once
    2 lambda + 2 tau' / sigma <= tol(1e-8) / 2: lambda <= _KERNEL_GAP and
    2 tau' / sigma <= tol(1e-8) / 4.  _splitting_certified must pass as
    well, on tau and F, so validate reads the splitting off this tau.  The
    units cost O(k n^2), A's own rows if declared; D's fix is validate's own.

    Every step above reads tau, like F, only as an upper bound.  For block
    factors (a SandwichSum) at n^4 > _BLOCK_FROM, tau is read in u's frame
    with no image of the units' stack: with Phi' the factors conjugated by u
    (SandwichSum.conjugated), u* Phi(f_s) u = Phi'(E_s), read at O(r n^2)
    per unit (SandwichSum.at_units), and ||X|| <= ||u^-1||^2 ||u* X u|| <=
    ||u* X u|| / (1 - eta), so
        tau <= (sum_s ||Phi'(E_s)||^2)^(1/2) / (1 - eta),
    which is taken as tau.  In coordinates (u None, eta = 0) it is the
    stack's value, bit for bit for the block pinching, whose products are by
    exact 0s and 1s.  For a map given as a matrix, and at n <= 4, tau is Phi
    at the k units, a bounded chunk at a time.
    """
    a, d = phi.domain, phi.range_alg
    off_a = _off_mask(a)
    if off_a is None or _off_mask(d) is None or not _same_rotation(a, d):
        return None
    u, mask = a.pattern
    eta = off_a[1]
    off = mask & ~d.pattern[1]
    k = int(off.sum())
    lam = _mask_gap(a) + 3.0 * eta  # inf when u is not unitary within _UNITARY_DEFECT
    if not (k + d.dim == a.dim and lam <= _KERNEL_GAP):
        return None
    n = phi.n
    i, j = np.nonzero(off)
    if _units_in_order(a):
        rows = a.space.flat[~d.pattern[1][mask]]  # A's rows at those units, in the same row-major order
    else:
        rows = _rotated_units(np.eye(n) if u is None else u, i, j)
    if n**4 > _BLOCK_FROM and isinstance(phi.factors, SandwichSum):
        rotated = phi._frame_factors
        # per unit, its image in u's frame
        tau = math.hypot(*(hs_norm(rotated.at_units(i[part], j[part])) for part in chunk_slices(k, n * n)))
        tau /= 1.0 - eta
    else:
        units = rows.reshape(k, n, n)
        # per unit, its image
        tau = math.hypot(*(hs_norm(phi.apply(units[part])) for part in chunk_slices(k, n * n)))
    kappa = phi.norm()
    fixed = hs_norm(phi.fix)
    small = tau / (1.0 - 2.0 * lam)
    sigma = (1.0 - fixed - 3.0 * eta) / (1.0 + 3.0 * eta)
    if not (small <= tol(1e-9) / 2 and sigma >= 2.0 * tol(1e-9) * max(1.0, kappa)
            and 2.0 * small <= sigma * tol(1e-8) / 4 and _splitting_certified(tau, fixed, kappa)):
        return None
    rows.flags.writeable = False
    return OperatorSubspace(n, rows), tau


def _multiplicative_from_defects(phi, kappa):
    """True when the defects of Phi on the domain's rotated matrix units bound every
    basis pair within the multiplicative bound tol(1e-8) max(1, ||x_a x_b||).

    kappa is at least Phi's norm (its Frobenius norm will do).  For a
    patterned domain (u, mask), m = mask.sum(), let f_s = u E_s u* for
    s = (i, j) on the mask, T_s = Phi(f_s) and B(x, y) = Phi(xy) - Phi(x)Phi(y),
    which is bilinear with ||B(x, y)|| <= (kappa + kappa^2) ||x|| ||y||.
    - f_s f_t = (u*u)_jk f_il for t = (k, l), so B(f_s, f_t) = mu_st +
      (u*u - I)_jk Phi(f_il) with mu_st = delta_jk T_il - T_s T_t; (i, l) is
      on the mask when j = k, as the mask is product-closed.
      ||f_il|| <= 1 + eta, eta = ||u*u - I||.
    - x_a = q_a + e_a with q_a = sum_s y_a[s] f_s, y_a = u* x_a u, so
      ||y_a|| <= 1 + eta and, with eps the largest off-mask norm of a y_a,
      ||e_a|| <= e = (1 + eta) eps + eta (2 + eta).
    Expanding B(x_a, x_b) = B(q_a, q_b) + B(q_a, e_b) + B(e_a, x_b) over the
    units and summing by Cauchy-Schwarz,
        ||B(x_a, x_b)|| <= (1 + eta)^2 (M + m eta kappa (1 + eta)) + (kappa + kappa^2) e (2 + e)
    with M = (sum_st ||mu_st||^2)^(1/2).  M is bounded with no product of two
    units.  With h = u*u, Y_s = u* T_s u and u h^-1 u* = I,
    u* T_s T_t u = Y_s h^-1 Y_t, so u* mu_st u = nu_st + Y_s (I - h^-1) Y_t
    with nu_st = delta_jk Y_il - Y_s Y_t, ||I - h^-1|| <= eta / (1 - eta)
    and ||u^-1||^2 <= 1 / (1 - eta):
        M <= (N + eta / (1 - eta) sum_s ||Y_s||^2) / (1 - eta),
    N = (sum_st ||nu_st||^2)^(1/2).  Write Y_s = F_s + Delta_s with F_s = E_s
    for s on D's mask and 0 otherwise, Delta_s formed entrywise (D is
    read only when it carries the same u, as the defects are small only
    then).  When D's mask is an equivalence relation ~, and (i, j), (j, l)
    on A's mask with i ~ l puts both on D's mask, F_s F_t = delta_jk F_il
    for s, t on A's mask, so
        nu_st = delta_jk Delta_il - F_s Delta_t - Delta_s F_t - Delta_s Delta_t,
    and N is at most the sum of the four terms' l2 norms over (s, t):
    (sum_il p_il ||Delta_il||^2)^(1/2), p_il the number of j with (i, j)
    and (j, l) on A's mask; (sum_j r_j sum_t ||row j of Delta_t||^2)^(1/2),
    r_j the number of i with (i, j) on both masks; the same with the
    columns k of Delta_s and the number of l with (k, l) on both masks; and
    sum_s ||Delta_s||^2.  The Y_s come from _rotated_unit_images: for block
    factors from the factors rotated once into u's frame, O(r n^3 + m r n^2),
    and for a matrix from its images, O(m dim A n^2 + m n^3).  The sums cost
    O(m n^2), a bounded chunk of units at a time.  The units pass when the
    right side is at most tol(1e-8).
    """
    a, d = phi.domain, phi.range_alg
    if not _same_rotation(a, d) or _mask_classes(d) is None:
        return False
    mask = a.pattern[1]
    both = mask & d.pattern[1]
    # paths[i, l] counts the j with (i, j) and (j, l) on A's mask, exact in floating point
    paths = mask.astype(float) @ mask
    if np.any(paths[~mask]) or np.any((paths - both.astype(float) @ both)[d.pattern[1]]):
        return False
    rows, cols = np.nonzero(mask)
    n, m = phi.n, len(rows)
    eps, eta, unit_images = _rotated_unit_images(phi, rows, cols)
    e = (1 + eta) * eps + eta * (2 + eta)
    allowed = (tol(1e-8) - (kappa + kappa**2) * e * (2 + e)) / (1 + eta) ** 2 - m * eta * kappa * (1 + eta)
    if not (allowed > 0 and eta < 1):
        return False
    on_d = both[rows, cols]
    norms, row_sq, col_sq, spread = np.empty(m), np.zeros(n), np.zeros(n), 0.0
    # a bounded chunk of units at a time: the Y_s, less F_s in place
    for part in chunk_slices(m, n * n):
        y = unit_images(part)
        spread += np.vdot(y, y).real  # sum_s ||Y_s||^2, before F is taken off
        hit = np.flatnonzero(on_d[part])
        y[hit, rows[part][hit], cols[part][hit]] -= 1.0
        sq = (y * y.conj()).real
        norms[part] = sq.sum(axis=(1, 2))
        row_sq += sq.sum(axis=(0, 2))
        col_sq += sq.sum(axis=(0, 1))
    bound = (
        np.sqrt(paths[rows, cols] @ norms)
        + np.sqrt(row_sq @ both.sum(axis=0))
        + np.sqrt(col_sq @ both.sum(axis=1))
        + norms.sum()
    )
    return bool((bound + eta / (1 - eta) * spread) / (1 - eta) <= allowed)


def _rotated_unit_images(phi, rows, cols):
    """(eps, eta, images) for Phi on a patterned domain (u, mask) and its units s = (rows[s],
    cols[s]): eps the largest off-mask norm of a rotated basis element, eta = ||u*u - I||, and
    images(part) the fresh (k, n, n) stack of the Y_s = u* Phi(f_s) u over a slice of the units.

    For block factors (a SandwichSum, L_t and R_t) the map is conjugated
    once into u's frame, L'_t = u* L_t u and R'_t = u* R_t u at O(r n^3)
    (DCharacter._frame_factors), and eps and eta are the domain's kept
    _off_mask: u* L_t f_s R_t u = L'_t E_ij R'_t, so Y_s is the conjugated
    map at E_ij, sum_t L'_t[:, i] R'_t[j, :] (SandwichSum.at_units), with no
    copy of the basis and no product with the images.  For a map
    given as a matrix, Phi = Phi Q_A and T_s = Phi(Q_A f_s) = sum_a
    <f_s, x_a> Phi(x_a): one (k x dim A)(dim A x n^2) product per slice with
    _pattern_coordinates' coordinates, none on the mask's identity rows,
    whose images are the T_s, each slice then rotated at O(k n^3).
    """
    u = phi.domain.pattern[0]
    off = _off_mask(phi.domain)
    if isinstance(phi.factors, SandwichSum) and off is not None:
        rotated = phi._frame_factors
        return *off, lambda part: rotated.at_units(rows[part], cols[part])
    coords, residuals, eta = _pattern_coordinates(phi.domain)
    n = phi.n

    def images(part):
        # on identity rows, the images' own rows, copied as the caller writes into them
        units = phi.images[part].copy() if coords is None else coords[:, part].conj().T @ phi.images
        return units.reshape(-1, n, n) if u is None else dagger(u) @ units.reshape(-1, n, n) @ u

    return residuals.max(initial=0.0), eta, images


def make_block_character(n, blocks):
    """Canonical instance family: A = block upper triangular, D = block diagonal,
    Phi = compression onto the diagonal blocks, all for an ordered partition."""
    return _block_character(n, blocks)


def _block_character(n, blocks, u=None):
    """make_block_character, or with a unitary u its rotation x -> u x u* of A, D and Phi, erasing the
    block tags: A's and D's rows written once from (u, mask) by algebras._mask_algebra, Phi _pinching's
    factors on D, each validated once, and no M_n.  A u off unitary by more than 1e-9 raises InvariantViolation;
    one past _UNITARY_DEFECT keeps its pattern, and each certificate gated by algebras._mask_gap defers."""
    blocks = [list(blk) for blk in blocks]
    a = _block_algebra(n, blocks, star=False, u=u)
    d = _block_algebra(n, blocks, star=True, u=u)
    phi = DCharacter(_pinching(d), a, d)
    phi.blocks = blocks if u is None else None
    if _sum_dimension(a) != n**2:
        raise InvariantViolation("A + A* should span M for a triangular partition")
    if not diagonal_part_check(a, d, phi):
        raise InvariantViolation("A intersect A* should be exactly D")
    return a, d, phi


def _pinching(d, u=None):
    """x -> sum_t f_t x f_t as a SandwichSum, f_t = u p_t u* for D's block projections p_t
    (expectations._class_projections; u None for the identity).

    It vanishes off U = span{u E_s u*} over A's mask, whatever u*u - I is:
    x orthogonal to U has (u* x u)_s = conj <u E_s u*, x> = 0 there, on every
    block.  So Phi = Phi∘Q_U, which the certificates read as Phi = Phi∘Q_A:
    A's rows are the u E_s u* to rounding, and for an A within lambda of U
    the two differ on U by at most kappa lambda^2, kappa = ||Phi||, as
    Phi(f - Q_A f) = Phi((Q_U - Q_A)^2 f) for f in U.
    """
    f = _class_projections(d) if u is None else u @ _class_projections(d) @ dagger(u)
    return SandwichSum(f, f)


def block_compression_character(a, d):
    """Phi(x) = sum_t p_t x p_t on A, p_t the diagonal projection onto block t of a.blocks, as
    _pinching's factors; the blocks are kept as phi.blocks."""
    phi = DCharacter(_pinching(block_diagonal_algebra(a.n, a.blocks)), a, d)
    phi.blocks = [list(blk) for blk in a.blocks]
    return phi


def _scalar_weight(weight):
    """c when the weight is exactly c I with c > 0, 1 for no weight, else None."""
    if weight is None:
        return 1.0
    c = weight[0, 0]
    if c.real > 0 and not np.any(weight - c * np.eye(len(weight))):
        return float(c.real)
    return None


def _matched_density(space, values, m, perturb, rng_seed, weight=None):
    """Minimal-norm r with Tr(r x_j w) = value_j over the orthonormal rows x_j of space, for the
    weight w (the identity when None).

    The minimal-norm solution lies in the span of the adjoints of the
    constraints, hence inside span(M).  For w = c I the constraints c x_j are
    orthonormal up to the factor c, so it is r = sum_j (v_j / c) x_j*, an
    O(dim A n^2) product: Tr(r c x_i) = sum_j v_j Tr(x_j* x_i) = v_i.  Let S
    be the constraint system, S vec(r) = (Tr(r c x_j))_j.  The closed form
    is S* v / c^2, and S* (S S*)^-1 v, the least-squares solution, differs
    from it by S^+ e, e = S vec(r) - v its residual: so the two differ by at
    most ||e|| / sigma_min(S), and sigma_min(S) = c (1 - ||G - I||)^(1/2) or
    more for rows whose Gram matrix G is within ||G - I|| of the identity.
    The closed form is kept when its residual passes the residual check;
    otherwise, for any other weight and for a nonzero perturb, the
    least-squares solve of the stacked constraints decides.  A nonzero
    perturb shifts r inside the constraint kernel intersected with span(M):
    the matching is untouched but downstream results can be probed for
    dependence on the choice of r.
    """
    values = np.asarray(values, dtype=complex)
    bound = tol(1e-9) * max(1.0, float(np.linalg.norm(values)))
    c = _scalar_weight(weight)
    if c is not None and not perturb:
        # sum_j (v_j / c) x_j*, with the conjugation on the n^2 result rather than on the rows
        r = dagger(((values / c).conj() @ space.flat).reshape(space.ambient_dim, -1))
        # Tr(r c x_j) = c <vec(x_j), vec(r^T)>, the check's statistic without the stacked system
        if float(np.linalg.norm(c * (space.flat @ r.T.ravel()) - values)) <= bound:
            return r
    system = constraint_system(space.tensor if weight is None else space.tensor @ weight)
    r = minimal_norm_solution(system, values)
    check(InvariantViolation, "matching: constraints unsatisfied (residual {:.3e})",
          float(np.linalg.norm(system @ r.ravel() - values)), bound)
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
    check(InvariantViolation, "factorization: a b* misses r by {:.3e}",
          hs_norm(a @ dagger(b) - r), tol(1e-8) * max(1.0, hs_norm(r)))
    return a, b


# the largest delta kappa(g) at which _projected_rows projects b one mask-row class at a time:
# the projection then lies within 2 delta kappa ||b w^(1/2)|| of the dense one, which moves each
# kernel-orthogonality statistic of _projected_factor by at most a tenth of its threshold
_ROWS_GAP = tol(1e-8) / 20


def _projected_rows(a_alg, aw, bt):
    """The projection of bt onto span{x aw : x in A}, one mask-row class at a time; None when A
    has no usable pattern or the gate below fails, and orthonormalize's SVD decides.

    Let A carry the pattern (u, B), delta = _mask_gap(A) and v the unitary
    polar factor of u, so that A's span lies within delta of P = v B v*; let
    g = u* aw and h = u* bt.
    - Rows.  For y in B, row i of y g is sum_j y_ij g_j over the j with
      mask[i, j], and the HS norm sums over rows, so the projection of h onto
      {y g : y in B} takes row i to the projection of h_i onto
      span{g_j : mask[i, j]}: one SVD of g's selected rows per distinct mask
      row, at most n x n, whose right-singular vectors above the cutoff
      (tol(1e-9) times the largest row norm of g) are its basis.  With u
      unitary, u times it is the projection of bt onto S_P = {p aw : p in P},
      and the classes' singular values are those of x -> x aw on P.
    - Rank.  The dense route keeps the directions of S_A = {x aw : x in A}
      whose singular values exceed tol(1e-9) times the largest ||x_j aw|| over
      A's orthonormal basis.  That norm lies between rho / (2n) and
      2 sqrt(n) rho, rho the largest row norm of g (each row is ||E_ii g||; a
      unit x has ||x aw|| <= ||aw||; and the squares sum to ||T Q_A||_F^2 over
      at most n^2 rows), once delta sqrt(n) <= 1/2.  Extend x -> x aw to
      F_A = T Q_A and F_P = T Q_P on M_n: ||F_A - F_P|| <= delta s_max to
      first order in delta, with s_max the largest singular value of the
      classes (T on A + P is within delta ||T|| of T on P), so (Weyl) each
      singular value moves by at most that.  When every class's singular value s has
      s + delta s_max <= cut / (2n) or s - delta s_max > 2 sqrt(n) cut, both
      routes keep the same directions.
    - Distance.  Then Wedin's theorem bounds the gap between S_A and S_P by
      delta s_max / (s_min - cut / (2n)) <= 2 delta kappa, with s_min the least
      kept singular value and kappa = s_max / s_min over all classes, as
      s_min > 2 sqrt(n) cut.  So the two projections of bt differ by at most
      2 delta kappa ||bt||, to first order in delta and in u's defect
      eta <= delta / 3, which moves g, h and the product by u by the same order.  The gate is
      delta kappa <= _ROWS_GAP, checked after the SVDs; delta alone is tested
      first, as kappa >= 1.
    """
    delta = _mask_gap(a_alg)  # inf without a pattern that fits
    if not delta <= _ROWS_GAP:
        return None
    u, mask = a_alg.pattern
    g, h = (aw, bt) if u is None else (dagger(u) @ aw, dagger(u) @ bt)
    n = len(g)
    cut = tol(1e-9) * float(np.linalg.norm(g, axis=1).max())
    out = np.empty_like(h)
    spectra = []
    for rows in _mask_rows(a_alg):
        _, s, vh = np.linalg.svd(g[mask[rows[0]]], full_matrices=False)
        basis = vh[s > cut]
        out[rows] = (h[rows] @ dagger(basis)) @ basis
        spectra.append(s)
    s = np.concatenate(spectra)
    kept = s[s > cut]
    slack = delta * float(s.max(initial=0.0))
    clear = np.all((s + slack <= cut / (2 * n)) | (s - slack > 2 * np.sqrt(n) * cut))
    if not (kept.size and clear and delta * kept.max() <= _ROWS_GAP * kept.min()):
        return None
    return out if u is None else u @ out


def _projected_factor(a_alg, kernel, a_mat, b_mat, weight=None):
    """c = projection of b onto span{x a : x in A}, orthogonal to span{j a : j in J}.

    A positive-definite weight w switches the inner product to Tr(w y* x),
    realized by right-multiplying every vector with w^(1/2).  On a patterned
    A the projection is taken one mask-row class at a time (_projected_rows);
    otherwise, and where its gate fails, from orthonormalize's SVD of the
    stacked x a w^(1/2) over A's basis."""
    n = a_mat.shape[0]
    sqw = psd_sqrt(weight) if weight is not None else np.eye(n, dtype=complex)
    bt = b_mat @ sqw
    ct = _projected_rows(a_alg, a_mat @ sqw, bt)
    if ct is None:
        # x a w^(1/2) for every basis element x of A, multiplied in that order as one x at a time would be
        ct = orthonormalize(a_alg.space.tensor @ a_mat @ sqw).project(bt)
    scale = max(1.0, hs_norm(bt))
    f = (kernel.tensor @ a_mat @ sqw).reshape(kernel.size, n * n)
    overlaps = np.abs(f.conj() @ np.stack([bt.ravel(), ct.ravel()], axis=1))
    bounds = tol(1e-8) * scale * np.maximum(1.0, hs_norms(f))
    # the first failing kernel element decides which of the two is reported
    for (b_gap, c_gap), bound in zip(overlaps.tolist(), bounds.tolist()):
        check(InvariantViolation, "kernel orthogonality: b overlaps ker(Phi)·a by {:.3e}", b_gap, bound)
        check(InvariantViolation, "kernel orthogonality: c overlaps ker(Phi)·a by {:.3e}", c_gap, bound)
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
    return hs_norm(psi.apply(phi.domain.space.tensor).reshape(phi.images.shape) - phi.images)


def _extension_bound(psi, phi):
    """An upper bound on _extension_gap read in A's unit frame, with no image of A's basis;
    None unless Psi and Phi are SandwichSums, n^4 > _BLOCK_FROM and A's rows are its
    pattern's units (algebras._unit_frame).

    Let Delta = Psi - Phi = sum_q A_q x C_q over Psi's pairs and Phi's with
    C negated, and f_s = u E_s u* for A's rows x_s.  Then u* Delta(f_s) u =
    Delta'(E_s) exactly, Delta' = Delta conjugated by u: Psi's pairs
    conjugated (SandwichSum.conjugated) beside Phi's kept ones
    (DCharacter._frame_factors), read at the units by at_units; and
    ||X|| <= ||u^-1||^2 ||u* X u|| with ||u^-1||^2 <= 1 / (1 - eta),
    eta = ||u*u - I||.  So, in l2 over the rows,
        ||(Psi - Phi) P_A||_F <= ||(Delta'(E_s))_s|| / (1 - eta),
    at O(r n^3 + m r n^2), a bounded chunk of units at a time.
    """
    frame = _unit_frame(phi.domain) if phi.n**4 > _BLOCK_FROM else None
    if frame is None or not (isinstance(psi.factors, SandwichSum) and isinstance(phi.factors, SandwichSum)):
        return None
    u, rows, cols, eta = frame
    f, g = psi.factors.conjugated(u), phi._frame_factors
    delta = SandwichSum(np.concatenate((f.left, g.left)), np.concatenate((f.right, -g.right)))
    # per unit, its image
    frame_gap = math.hypot(*(hs_norm(delta.at_units(rows[part], cols[part]))
                             for part in chunk_slices(len(rows), phi.n**2)))
    return frame_gap / (1 - eta)


def _check_extends_character(e, phi):
    """The extension check on _extension_gap, read off _extension_bound when that passes, so a
    failure reports the exact gap."""
    bound = tol(1e-7) * max(1.0, phi.norm())
    gap = _extension_bound(e, phi)
    if gap is None or not gap <= bound:
        gap = _extension_gap(e, phi)
    check(InvariantViolation, "extension: Psi differs from Phi on A by {:.3e}", gap, bound)


def _check_represents(rho, phi, values, what):
    # rho must keep the matched values on all of A, not merely on D: averaging
    # moves the functional only inside the relative commutant of D
    _check_values(InvariantViolation, f"{what} no longer represents the character on A",
                  rho, phi.domain.space.flat, values, 1e-8)


def _represented_factor(functional, a, phi, m, perturb, rng_seed, weight):
    """The pipelines' head, in the weight's inner product (None for the trace's): the functional's
    values on Phi's images of A's basis (DCharacter.domain_values), their matched density, its
    polar factors and the projected factor c."""
    values = phi.domain_values(functional.density)
    r = _matched_density(a.space, values, m, perturb, rng_seed, weight=weight)
    a_mat, b_mat = _polar_factors(r)
    return values, _projected_factor(a, phi.kernel, a_mat, b_mat, weight=weight)


def _central_extension(functional, reference, d, m, phi, values):
    """The pipelines' tail: (Psi, rho) for rho the functional averaged against the reference, checked
    to represent Phi on A, and Psi its preserving expectation, checked to extend Phi."""
    rho = _average_to_central(functional, reference, d, m)
    _check_represents(rho, phi, values, "the averaged state")
    psi = _preserving_expectation(rho, d, m)  # rho is D-central: averaging checked it
    _check_extends_character(psi, phi)
    return psi, rho


def _check_annihilates(functional, kernel):
    check(InvariantViolation, "the normalized state does not annihilate ker(Phi) ({:.3e})",
          np.abs(_values_on(functional, kernel.flat)), tol(1e-8))


def representing_expectation_tracial(m, tau, d, a, phi, perturb_r=0.0, rng_seed=0):
    """Expectation M -> D extending the character, preserving a tau-built state.

    Works in the inner product Tr(k y* x) with k the density of tau on M;
    for the normalized trace k is scalar and this is the plain Hilbert-Schmidt
    geometry.  Returns (Psi, rho) with Psi|_A = Phi, rho∘Psi = rho and
    rho|_A = tau∘Phi.  DimensionMismatch first when tau, D and M differ in size.
    """
    require_same_ambient(tau, d, m)
    require_tracial(tau, m, "reference is not tracial on M (violation {:.3e})")
    if not _faithful_on(tau, m):
        raise NotFaithful("reference is not faithful on M")
    k = tau.restricted_density(m)
    k = (k + dagger(k)) / 2
    # tracial <=> k commutes with M, so k-weighted projections stay M-compatible
    values, c = _represented_factor(tau, a, phi, m, perturb_r, rng_seed, k)
    e_d = preserving_expectation(tau, d, m)
    g = e_d(c @ dagger(c))
    spec_g = _invertible_average(g, "the D-average of cc*")
    inv_sq = spec_g.apply(lambda v: 1.0 / np.sqrt(v))
    h = inv_sq @ (c @ dagger(c)) @ inv_sq
    check(InvariantViolation, "normalization: E_D(h) misses I by {:.3e}",
          hs_norm(e_d(h) - np.eye(m.n)), tol(1e-7) * np.sqrt(m.n))
    kh = k @ h
    omega = PositiveFunctional((kh + dagger(kh)) / 2)
    _check_annihilates(omega, phi.kernel)
    return _central_extension(omega, tau, d, m, phi, values)  # tau passed E_D's D-centrality gate


def representing_expectation_state(m, omega, d, a, phi, perturb_r=0.0, rng_seed=0):
    """Same construction for a faithful state whose density commutes with D.

    The matching and the projection of b run in the plain trace pairing; the
    weight enters only through the D-average, taken on the conjugated matrix
    k^(-1/2) cc* k^(-1/2) so that the resulting density extends omega on D.
    Returns (Psi, rho) with Psi|_A = Phi, rho∘Psi = rho and rho|_A = omega∘Phi.
    """
    require_D_central(omega, d, m, NotCentral, "D is not inside the centralizer of omega (violation {:.3e})")
    if not _faithful_on(omega, m):
        raise NotFaithful("omega is not faithful on M")
    k = omega.restricted_density(m)
    k = (k + dagger(k)) / 2
    spec_k = eigh_hermitian(k)
    inv_sqk = spec_k.apply(lambda v: 1.0 / np.sqrt(v))
    sqk = spec_k.apply(lambda v: np.sqrt(np.clip(v, 0.0, None)))
    values, c = _represented_factor(omega, a, phi, m, perturb_r, rng_seed, None)
    cc = c @ dagger(c)
    e_d = _preserving_expectation(omega, d, m)  # omega passed the D-centrality gate above
    g0 = e_d(inv_sqk @ cc @ inv_sqk)
    spec_g = _invertible_average(g0, "the weighted D-average of cc*")
    # the trace pre-adjoint of E_D applied to cc* must factor as k^(1/2) g0 k^(1/2);
    # both sides are computed independently, so this ties the two routes together
    split_gap = hs_norm(e_d.pullback_density(cc) - sqk @ (spec_g.reconstruct() @ sqk))
    check(InconsistencyDetected, "the D-average of cc* disagrees with its weighted factorization ({:.3e})",
          split_gap, tol(1e-8) * max(1.0, hs_norm(cc)))
    h1 = spec_g.apply(lambda v: 1.0 / np.sqrt(v)) @ c
    h = h1 @ dagger(h1)
    h = (h + dagger(h)) / 2
    trace = np.trace(h).real
    check(InvariantViolation, f"normalization: Tr(h) = {trace:.12f}", abs(trace - 1.0), tol(1e-7))
    theta = PositiveFunctional(h)
    _check_values(InvariantViolation, "the normalized state does not extend omega on D",
                  theta, d.space.flat, _values_on(omega, d.space.flat), 1e-8)
    _check_annihilates(theta, phi.kernel)
    check(InvariantViolation, "normalization: E_D(k^-1/2 h k^-1/2) misses I by {:.3e}",
          hs_norm(e_d(inv_sqk @ h @ inv_sqk) - np.eye(m.n)), tol(1e-7) * np.sqrt(m.n))
    return _central_extension(theta, omega, d, m, phi, values)


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
    values, c = _represented_factor(sigma, a, phi, m, 0.0, 0, None)
    cc = c @ dagger(c)
    mass = float(np.trace(cc).real)
    if not mass > tol(1e-12):  # strict, and NaN fails
        raise InvariantViolation("projected factor vanished; sigma(Phi(I)) should force c != 0")
    seed = PositiveFunctional((cc + dagger(cc)) / (2 * mass))
    _check_annihilates(seed, phi.kernel)
    if not _faithful_on(seed, d):
        raise InvariantViolation("the representing state should be faithful on D")
    psi = preserving_expectation(seed, d, m)
    _check_extends_character(psi, phi)
    rho = psi.pullback(sigma)
    _check_represents(rho, phi, values, "sigma∘Psi")
    rebuilt = preserving_expectation(rho, d, m)
    check(InconsistencyDetected, "uniqueness: rebuilding from sigma∘Psi gave a different expectation ({:.3e})",
          float(np.linalg.norm(psi.map_matrix - rebuilt.map_matrix)),
          tol(1e-7) * max(1.0, float(np.linalg.norm(psi.map_matrix))))
    return psi, rho


def extension_via_ss_density(m, omega_d, d, a, phi, psi):
    """When A + A* spans M, a state extension of omega_D∘Phi determines the expectation.

    The extension is automatically D-central: its centrality identities hold
    on A by traciality of omega_D on D, and A + A* exhausts M.  The
    psi-preserving expectation then extends the character.
    """
    if not check_ss_density(a, m):
        raise NotDense("A + A* does not span M")
    require_tracial(omega_d, d, "omega_D is not tracial on D (violation {:.3e})")
    if not _faithful_on(omega_d, d):
        raise NotFaithful("omega_D is not faithful on D")
    _check_values(NotAnExtension, "psi does not extend omega_D∘Phi on A",
                  psi, a.space.flat, phi.domain_values(omega_d.density), 1e-8)
    require_D_central(psi, d, m, InconsistencyDetected, "an extension of a tracial character functional must be"
                      " D-central when A + A* spans M; violation {:.3e}")
    e = _preserving_expectation(psi, d, m)  # psi passed the D-centrality test above
    _check_extends_character(e, phi)
    return e


def mth_check(mu, g):
    """Whether (sum f mu)^2 <= sum f^2 g mu for every f >= 0.

    Decided by the closed criterion: g > 0 wherever mu > 0 and
    sum(mu/g) <= 1 over that support.  Cross-checked against the ratio
    maximizer f = 1/g and 64 random nonnegative probes; the two verdicts must
    agree away from the boundary sum(mu/g) = 1.  A negative mu, or a mu or g
    that is not finite, raises InvariantViolation before any probe runs.
    """
    mu = np.asarray(mu, dtype=float)
    g = np.asarray(g, dtype=float)
    if mu.shape != g.shape or mu.ndim != 1:
        raise DimensionMismatch(f"weight and density shapes differ: {mu.shape} vs {g.shape}")
    if mu.size == 0:
        raise EmptyInput("empty weight vector")
    check(InvariantViolation, "mu must be nonnegative", -mu, 0.0)
    if not (np.isfinite(mu).all() and np.isfinite(g).all()):
        raise InvariantViolation("mu and g must be finite")
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
        # the ratio has degree 1 in mu and -1 in g: each is scaled by a power of two, exactly, to a largest
        # entry in [1/2, 1), and the ratio scaled back, so that tiny weights do not underflow to 0 / 0
        e_mu, e_g = math.frexp(float(mu.max()))[1], math.frexp(float(np.abs(g).max()))[1]
        mu_s, g_s = np.ldexp(mu, -e_mu), np.ldexp(g, -e_g)
        weight = np.sum(f * mu_s, axis=1)
        quad = np.sum(f * f * g_s * mu_s, axis=1)
        ratios = np.ldexp(np.where(quad > 0, weight * weight / quad, np.inf), e_mu - e_g)
        # a probe with no weight says nothing; fmax skips the NaN of an undefined ratio
        best = float(np.fmax.reduce(ratios[~(weight <= 0)], initial=0.0))
    sampled = best <= 1.0 + tol(1e-9)
    if sampled != criterion and abs(integral - 1.0) > 30 * tol(1e-9):
        raise InconsistencyDetected(
            f"ratio probes ({best:.6e}) contradict the integral criterion ({integral:.6e})"
        )
    return criterion
