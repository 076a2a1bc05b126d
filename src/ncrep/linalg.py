"""Dense complex matrices: Hermitian functional calculus and Hilbert-Schmidt geometry.

Conventions used throughout the package:

* inner product ``<X, Y> = Tr(Y* X)``, linear in the first slot;
* matrices are flattened row-major (C order), so the map ``x -> a x b``
  has matrix ``kron(a, b.T)`` on flattened coordinates;
* "positive definite" means smallest eigenvalue above ``pd_tol(X)``,
  which is 1e-10 times the spectral norm.  Operations that need strict
  positivity fail loudly below that; nothing is ever regularized.
"""

import functools
import math

import numpy as np

from .config import tol
from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvariantViolation,
    NotHermitian,
    NotPositiveDefinite,
    check,
)


def as_matrix(x):
    """Coerce to a square complex ndarray and check the entries are finite."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return require_finite(m)


def sized_matrix(x, n):
    """as_matrix, then DimensionMismatch unless x is n x n: an argument of a map or functional on M_n."""
    x = as_matrix(x)
    if x.shape[0] != n:
        raise DimensionMismatch(f"ambient dim {n}, matrix dim {x.shape[0]}")
    return x


class DerivedStore:
    """Values computed once per key and kept for the owner's lifetime; the owner sets self._derived = {}."""

    def derived(self, key, compute):
        """compute() on the first request for key, then the kept value: for data that depends on
        this object alone (and on objects named in key).  A compute() that raises keeps nothing."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]


def read_only(a):
    """a itself when no array it views can be written, else its entries copied into a
    read-only array, so that what is kept from it cannot change under a caller's write."""
    base = a
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            a = a.copy()
            a.flags.writeable = False
            return a
        base = base.base
    return a


def require_finite(x):
    """x itself, after checking that no entry is NaN or infinite."""
    if not np.isfinite(x).all():
        raise InvariantViolation("matrix entries must be finite")
    return x


def dagger(x):
    return np.conj(x).swapaxes(-1, -2)


def hs_norm(x):
    x = np.asarray(x)
    square = np.vdot(x, x).real
    if math.isfinite(square):
        return math.sqrt(square)
    # the square sum overflowed or an entry is not finite: rescale by the largest entry
    top = float(np.abs(x).max())
    return top * hs_norm(x / top) if math.isfinite(top) else top


def hs_norms(stack):
    """hs_norm of each entry of a stack along its first axis, as a float array.

    Complex entries are read as their real and imaginary parts; einsum
    raises no overflow warning, and a stack whose square sums overflow is
    rescaled entry by entry by hs_norm.
    """
    stack = np.ascontiguousarray(stack)
    rows = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    if rows.dtype.kind == "c":
        rows = rows.view(rows.real.dtype)
    squares = np.einsum("ij,ij->i", rows, rows)
    if math.isfinite(sum(squares.tolist())):  # cheaper than a numpy reduction for the usual few entries
        return np.sqrt(squares)
    return np.array([hs_norm(x) for x in stack])


def commutator(x, y):
    return x @ y - y @ x


def commutation_gap(x, basis):
    """max ||[x, b]|| over a stacked (k, n, n) basis, for one matrix x or over
    every x of a stack (p, n, n); 0 for an empty basis."""
    x = x[..., None, :, :]
    n = basis.shape[-1]
    brackets = x @ basis
    brackets -= basis @ x
    return float(hs_norms(brackets.reshape(-1, n, n)).max(initial=0.0))


class HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix: ascending eigenvalues, unitary columns."""

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(eigenvectors, dtype=complex)

    @property
    def dim(self):
        return self.eigenvectors.shape[0]

    @property
    def norm(self):
        """Spectral norm, read off the ends of the ascending eigenvalues (0 when empty)."""
        eigs = self.eigenvalues
        return max(-float(eigs[0]), float(eigs[-1])) if eigs.size else 0.0

    def reconstruct(self):
        u = self.eigenvectors
        return (u * self.eigenvalues) @ dagger(u)

    def apply(self, f):
        """U f(lambda) U* for a scalar function f applied to the eigenvalues."""
        u = self.eigenvectors
        return (u * f(self.eigenvalues)) @ dagger(u)

    def support(self, threshold):
        """Spectral projection onto eigenvalues strictly above threshold."""
        v = self.support_isometry(threshold)
        return v @ dagger(v)

    def support_isometry(self, threshold):
        """Isometry V onto the eigenvectors above threshold, so VV* = support(threshold)."""
        return self.eigenvectors[:, self.eigenvalues > threshold]


def require_hermitian(exc, message, x, scale):
    """check that ||x - x*|| is at most 1e-10 max(1, scale)."""
    check(exc, message, hs_norm(x - dagger(x)), tol(1e-10) * max(1.0, scale))


def eigh_hermitian(x):
    x = as_matrix(x)
    require_hermitian(NotHermitian, "matrix is not Hermitian within tolerance (defect {:.3e})", x, hs_norm(x))
    return hermitian_part_spectrum(x)


def hermitian_part_spectrum(x):
    """Spectrum of the Hermitian part (x + x*)/2, with no check that x is Hermitian.

    For a matrix that is Hermitian up to rounding by construction, such as a
    projected density; eigh_hermitian is the checked entry point.
    """
    w, u = np.linalg.eigh((x + dagger(x)) / 2)
    return HermitianSpectrum(w, u)


def pd_tol(spectral_norm):
    """Positive-definiteness cutoff: 1e-10 times the spectral norm."""
    return tol(1e-10) * spectral_norm


def _require_pd(spec, what):
    eigs = spec.eigenvalues
    # strict: a zero eigenvalue at a zero cutoff fails, and so does NaN
    if not (eigs.size and eigs[0] > pd_tol(spec.norm)):
        raise NotPositiveDefinite(
            f"{what} needs a positive definite argument (min eigenvalue {eigs[0] if eigs.size else 0:.3e})"
        )


def _require_psd(spec, what):
    """NotPositiveDefinite unless the least eigenvalue is at least -pd_tol - 1e-14."""
    if spec.eigenvalues.size:
        check(NotPositiveDefinite, what + " (min eigenvalue -{:.3e})", -spec.eigenvalues[0],
              pd_tol(spec.norm) + tol(1e-14))


def psd_sqrt(x):
    """Square root of a positive semidefinite matrix, tiny negative eigenvalues clipped to zero."""
    spec = eigh_hermitian(x)
    _require_psd(spec, "matrix is not positive semidefinite")
    return spec.apply(lambda v: np.sqrt(np.clip(v, 0.0, None)))


def matpow(x, p):
    """x**p for Hermitian x; negative p requires positive definiteness."""
    spec = eigh_hermitian(x)
    if p < 0:
        _require_pd(spec, f"power {p}")
        return spec.apply(lambda v: v**p)
    # nonnegative powers tolerate a numerically semidefinite argument
    _require_psd(spec, f"power {p} of an indefinite matrix")
    return spec.apply(lambda v: np.clip(v, 0.0, None) ** p)


def imag_power(x, t):
    """x**(it) = exp(it log x) for positive definite Hermitian x; the result is unitary."""
    spec = eigh_hermitian(x)
    _require_pd(spec, "imaginary power")
    return spec.apply(lambda v: np.exp(1j * t * np.log(v)))


def _identity_rows(space):
    """True when an OperatorSubspace's rows are declared unit rows at all n^2 columns: the identity,
    declared on an all-true mask in coordinates (full_matrix_algebra).  Products with such rows are
    exact, so callers skip them, and the rows are then never written."""
    cols = space._columns
    return cols is not None and len(cols) == space.ambient_dim**2


def _rotated_units(u, i, j):
    """The flat rows vec(u E_ij u*) = u[:, i] (x) conj(u[:, j]) for index arrays i and j, one
    complex product per entry, written once."""
    rows = np.empty((len(i), u.size), dtype=complex)
    np.multiply(u.T[i][:, :, None], u.T[j].conj()[:, None, :], out=rows.reshape(len(i), *u.shape))
    return rows


def _unit_rows(u, mask):
    """The one writer of declared rows, read-only: the units u E_ij u* at the mask's entries in
    row-major order, the identity rows the mask selects for u None, else _rotated_units'."""
    n = len(mask)
    where = np.flatnonzero(mask)
    if u is None:
        rows = np.zeros((len(where), n * n), dtype=complex)
        rows[np.arange(len(where)), where] = 1.0
    else:
        rows = _rotated_units(u, *np.divmod(where, n))
    rows.flags.writeable = False
    return rows


class OperatorSubspace:
    """Subspace of M_n under <X,Y> = Tr(Y*X), held as stacked orthonormal flat rows.

    A space is built from its rows or from a declaration, never both.
    declared is None, or the pattern (u, mask) that stands for the units
    u E_ij u* at the mask's entries in row-major order (u None in
    coordinates); algebras._unit_space hands it out, and rows are never
    scanned for it.  A declared space holds the mask alone, with size its
    count, until flat or tensor is first read: _unit_rows then writes the
    rows, once and read-only.  On declared coordinate units, every product
    with the rows is by an exact 0 or 1, so coords, from_coords, project
    and residuals read and write their columns (_columns, computed once
    here) with the same numbers (a zero's sign aside), and never write the rows.
    """

    def __init__(self, ambient_dim, flat=None, declared=None):
        self.ambient_dim = int(ambient_dim)
        self.declared = declared
        if declared is None:
            self.flat = np.asarray(flat, dtype=complex).reshape(-1, self.ambient_dim**2)
        self.size = len(self.flat) if declared is None else int(np.count_nonzero(declared[1]))
        self._columns = None if declared is None or declared[0] is not None else np.flatnonzero(declared[1])

    @functools.cached_property
    def flat(self):
        """A declared space's rows, written on first read (_unit_rows); rows given are set in __init__."""
        return _unit_rows(*self.declared)

    @property
    def basis(self):
        n = self.ambient_dim
        return [self.flat[i].reshape(n, n) for i in range(self.size)]

    @property
    def tensor(self):
        """The basis stacked as one (size, n, n) array, a view of the rows."""
        n = self.ambient_dim
        return self.flat.reshape(self.size, n, n)

    def coords(self, x):
        """The coordinates <x, w_k> on the rows w_k: on unit rows, x's entries at their columns, copied.
        Otherwise conj(W conj(x)), each term the conjugate of conj(w) x by exact sign flips, with no
        conjugated copy of the rows."""
        x = sized_matrix(x, self.ambient_dim)
        cols = self._columns
        if cols is not None:
            return x.ravel()[cols]
        return np.conj(self.flat @ np.conj(x.ravel()))

    def from_coords(self, c):
        c = np.asarray(c, dtype=complex)
        n = self.ambient_dim
        cols = self._columns
        if cols is not None:
            out = np.zeros(n * n, dtype=complex)
            out[cols] = c
            return out.reshape(n, n)
        return (c @ self.flat).reshape(n, n)

    def project(self, x):
        return self.from_coords(self.coords(x))

    def residuals(self, rows):
        """HS distance from the span of each flattened matrix in rows (k, n^2); on unit rows, the
        norms of the rows with the unit columns zeroed, the array the product route forms."""
        cols = self._columns
        if cols is not None:
            rest = np.array(rows, dtype=complex)
            rest[:, cols] = 0.0
            return hs_norms(rest)
        return hs_norms(rows - (rows @ self.flat.conj().T) @ self.flat)

    def contains(self, x):
        x = sized_matrix(x, self.ambient_dim)
        return hs_norm(x - self.project(x)) <= tol(1e-8) * max(1.0, hs_norm(x))


def orthonormalize(spanning_set):
    """Orthonormal basis of the span under Tr(Y*X), from one SVD of the stacked rows.

    The basis is the right-singular vectors whose singular value exceeds
    1e-9 times the largest input norm; directions below it count as
    dependent and are dropped.  The rows are read-only, so an algebra over
    them need not copy them.
    """
    try:
        stack = np.array(spanning_set, dtype=complex)
    except ValueError as err:
        raise DimensionMismatch("spanning set mixes ambient dimensions") from err
    if len(stack) == 0:
        raise EmptyInput("cannot orthonormalize an empty spanning set")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {stack.shape}")
    n = stack.shape[1]
    rows = require_finite(stack.reshape(len(stack), n * n))
    dep_tol = tol(1e-9) * float(hs_norms(rows).max())
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    basis = vh[s > dep_tol]
    basis.flags.writeable = False
    return OperatorSubspace(n, basis)


def null_space_rows(a):
    """Orthonormal basis (rows) of the kernel of a, by SVD.

    The rank cutoff is 1e-9 times the largest singular value with an
    absolute floor of 1e-9, so a numerically zero matrix has full kernel.
    Callers pass O(1)-scaled data (orthonormal bases, projectors).  A tall
    a is reduced to the square R of its QR first: a = QR with Q isometric
    gives R the same singular values and right-singular vectors, and no
    tall left factor is formed.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    if a.shape[0] > a.shape[1]:
        a = np.linalg.qr(a, mode="r")
    # thin svd already carries every right-singular vector unless a is wide
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank_tol = tol(1e-9) * max(1.0, float(s[0]) if s.size else 1.0)
    rank = int(np.sum(s > rank_tol))
    # a @ v = 0 for v a conjugated trailing right-singular vector
    return vh[rank:].conj()


def subspace_sum(*spaces):
    mats = []
    for s in spaces:
        mats.extend(s.basis)
    if not mats:
        raise EmptyInput("no subspaces to sum")
    return orthonormalize(mats)


def subspace_intersection(s, t):
    """Intersection of two subspaces: the combinations c of s's rows with c R = 0,
    R the residuals of s's rows against t."""
    if s.ambient_dim != t.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient dimensions")
    residual = s.flat - (s.flat @ t.flat.conj().T) @ t.flat
    return OperatorSubspace(s.ambient_dim, null_space_rows(residual.T) @ s.flat)


def same_subspace(s, t):
    if s.size != t.size:
        return False
    atol = tol(1e-8)
    return bool(np.all(t.residuals(s.flat) <= atol) and np.all(s.residuals(t.flat) <= atol))


def projection_isometry(p):
    """Isometry V with VV* = p, V*V = I_r; columns span the range of the projection p."""
    spec = eigh_hermitian(p)
    keep = spec.eigenvalues > 0.5
    return spec.eigenvectors[:, keep]


def _kron2(a, b):
    # np.kron for two matrices without its shape-juggling overhead
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def sandwich_matrix(a, b):
    """Matrix of x -> a x b on row-major flattened coordinates."""
    return _kron2(np.asarray(a, dtype=complex), np.asarray(b).T)


class Corner:
    """The corner of M_n cut out by an isometry v (n x r, v*v = I_r, r >= 1).

    The lift y -> v y v* has matrix sandwich_matrix(v, v*) = kron(v, conj v)
    on flattened coordinates.  It is an isometry, so its adjoint is the
    compression x -> v* x v, and lifting a compression sandwiches x by vv*.
    """

    def __init__(self, v):
        self.v = np.asarray(v, dtype=complex)
        self.n, self.rank = self.v.shape
        if self.rank == 0:
            raise EmptyInput("the corner of a zero projection is empty")
        self.lift_matrix = sandwich_matrix(self.v, dagger(self.v))

    @property
    def projection(self):
        """vv*, the projection onto the corner."""
        return self.v @ dagger(self.v)

    @property
    def compression_matrix(self):
        return dagger(self.lift_matrix)

    def compress(self, x):
        """v* x v, for one matrix or a stacked (k, n, n) tensor."""
        return dagger(self.v) @ x @ self.v

    def compress_rows(self, flat):
        """Flattened rows (k, n^2) compressed to a stacked (k, r, r) tensor."""
        return (flat @ np.conj(self.lift_matrix)).reshape(-1, self.rank, self.rank)

    def lift(self, y):
        """v y v*, for one matrix or a stacked (k, r, r) tensor."""
        return self.v @ y @ dagger(self.v)

    def lift_space(self, space):
        """An operator subspace of M_r carried into M_n; orthonormal rows stay orthonormal."""
        return OperatorSubspace(self.n, space.flat @ self.lift_matrix.T)

    def lift_map(self, k):
        """Matrix of x -> v K(v* x v) v* for the matrix k of a map K on M_r."""
        return self.lift_matrix @ k @ self.compression_matrix


# the most elements the intermediates of one chunk of a batched contraction hold
_CHUNK_ELEMENTS = 1 << 16
# the n^4 entries of a map on M_n above which block factors and reads by matrix unit pay: below, at
# n <= 4, a few small dense products cost less than their fixed per-call work (the closed-form
# expectation's build and validation took 1.0-1.6 times the Gram route's at n = 2..4, 0.4-0.9
# times at n = 5..8, on coordinate and rotated D; is_D_central read by unit took 1.17 times the
# products' time at n = 4, 1.06 at n = 5 and 0.67 at n = 8, _support_commutes 1.44, 1.34 and 0.78)
_BLOCK_FROM = 1 << 9
# float64 machine epsilon, the unit of an SVD's rounding floor
_EPS = np.finfo(float).eps
# the elements of the products of a map's own factors with a basis above which
# bimodule_gaps sketches the map's Schmidt rank
_SKETCH_FROM = 1 << 14


def chunk_slices(count, item_size):
    """Consecutive slices of range(count), as many items per slice as fit in
    _CHUNK_ELEMENTS at item_size elements each, and at least one."""
    step = max(1, _CHUNK_ELEMENTS // max(1, item_size))
    return [slice(s, s + step) for s in range(0, count, step)]


def pair_products(a, b):
    """All products a_s b_t of two stacks (p, n, n) and (r, n, n), from one gemm.

    Returned as a (p, r, n, n) view of the gemm's (p n, r n) result.
    """
    p, n, _ = a.shape
    r = len(b)
    rhs = b.transpose(1, 0, 2).reshape(n, r * n)
    return (a.reshape(p * n, n) @ rhs).reshape(p, n, r, n).transpose(0, 2, 1, 3)


def trace_pairings(y, x):
    """The (p, q) matrix [Tr(y_a x_b)] of two stacks (p, n, n) and (q, n, n).

    Tr(y_a x_b) is the dot product of y_a's rows with x_b's transposed
    rows, or of y_a's transposed rows with x_b's, so the matrix is one gemm
    of inner dimension n^2.  The shorter stack is the one transposed, which
    copies it.
    """
    n = x.shape[-1]
    if len(y) <= len(x):
        return y.swapaxes(1, 2).reshape(len(y), n * n) @ x.reshape(len(x), n * n).T
    return y.reshape(len(y), n * n) @ x.swapaxes(1, 2).reshape(len(x), n * n).T


@functools.lru_cache(maxsize=16)
def _sketch(rows, width):
    """A fixed complex Gaussian test matrix (rows, width), read-only and reused across calls."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
    g.flags.writeable = False
    return g


def _schmidt_factors(t, q):
    """Factors of the map with 4-tensor t[a, b, g, e] = K(E_ge)[a, b], for its module gaps
    at q basis elements (bimodule_gaps).

    Realigned, t is the n^2 x n^2 matrix R[(a, g), (b, e)].  A splitting
    R = sum_s x_s y_s^* reads K(x) = sum_s X_s x Y_s^T, with X_s and Y_s
    the vectors x_s and conj(y_s) as n x n matrices.  Returns (left, right,
    tail): left the stack (c, n, n) of the W_s = X_s of a splitting whose
    y_s are orthonormal, right the same for as many W_s = Y_s^T of one
    whose x_s are orthonormal, and tail bounds the Frobenius norm of the
    part of R that the splittings leave out.

    The splittings are R's own columns against unit vectors and unit
    vectors against R's rows (tail 0), unless a sketch finds R of low
    rank: R G for a fixed Gaussian G of width p = min(2n, n^2/2), as a
    module map over a D without multiplicity has Schmidt rank at most
    dim D' <= n.  When R G has numerical rank r < p, its left singular
    vectors Q span R's range up to rounding, and the thin SVD of Q* R gives
    R = sum_s sigma_s u_s v_s^* + (R - QQ*R).  The factors above the SVD's
    rounding floor n^2 eps sigma_max are kept, as sigma_s u_s against v_s
    and as u_s against sigma_s v_s; the tail is the residual R - QQ*R with
    the dropped sigma_s, orthogonal to it.  The sketch's R G costs about
    2 n^5 flops against the 4 q n^5 of R's own factors with the basis, so
    it is tried for q >= n only, and once those products hold more than
    _SKETCH_FROM elements, where their gemms pass its two SVDs.
    """
    n = t.shape[0]
    nn = n * n
    if q >= n and 4 * q * nn * nn > _SKETCH_FROM:
        r = t.swapaxes(1, 2).reshape(nn, nn)
        width = min(2 * n, nn // 2)
        u, s, _ = np.linalg.svd(r @ _sketch(nn, width), full_matrices=False)
        rank = int(np.count_nonzero(s > nn * _EPS * s[0]))
        if 0 < rank < width:
            range_basis = u[:, :rank]
            b = dagger(range_basis) @ r
            ub, sb, vh = np.linalg.svd(b, full_matrices=False)
            keep = int(np.count_nonzero(sb > nn * _EPS * sb[0]))
            rest = range_basis @ b
            rest -= r
            tail = math.hypot(hs_norm(rest), hs_norm(sb[keep:]))
            sb = sb[:keep]
            left = (range_basis @ (ub[:, :keep] * sb)).reshape(n, n, keep).transpose(2, 0, 1)
            right = (sb[:, None] * vh[:keep]).reshape(keep, n, n).swapaxes(1, 2)
            return left, right, tail
    # X_s for column (b, e) of R is t[:, b, :, e]; Y_s for row (a, g) is t[a, :, g, :]
    return t.transpose(1, 3, 0, 2).reshape(nn, n, n), t.transpose(0, 2, 3, 1).reshape(nn, n, n), 0.0


def bimodule_gaps(k, basis):
    """Module gaps of the map K with matrix k at each element d of a stacked basis (q, n, n).

    Row 0 of the (2, q) result holds upper bounds on the left gaps
    ||K L_d - L_d K||_F, row 1 on the right gaps ||K R_d - R_d K||_F, with
    L_d and R_d the matrices of x -> dx and x -> xd, over all of M_n.

    With K(x) = sum_s X_s x Y_s^T from _schmidt_factors, K L_d - L_d K is
    x -> sum_s [X_s, d] x Y_s^T, of Frobenius norm squared
    sum_s ||[X_s, d]||^2 when the Y_s are orthonormal, and K R_d - R_d K is
    x -> sum_s X_s x [d, Y_s^T], of norm squared sum_s ||[Y_s^T, d]||^2
    when the X_s are orthonormal (_commutator_gaps: O(c q n^3) flops for c
    factors, no n^2 x n^2 side matrix).  The part T of K the factors leave
    out has ||T||_F <= tail and moves either gap by at most 2 ||d||_F tail,
    which is added to every gap: never below the exact gap, and above it by
    at most 4 ||d||_F tail, of rounding size.

    A matrix kept as K = KP (MatrixMap), P the projection onto the domain,
    has ||KS - SK||^2 = ||(KS - SK)P||^2 + ||KPSP'||^2 for S = L_d or R_d,
    P' = I - P: these gaps are never below the module gaps on the domain,
    and equal them when the domain is closed under multiplication by d* on
    that side, as M is for the expectations and A, which contains the
    *-algebra D, for a character.  Block factors (SandwichSum) vanish off
    the span of A's rotated units instead (representing._pinching).  On a
    patterned D's rotated units the checks read the same factors rotated
    once into u's frame first (unit_frame_gaps), O(c n^3) in all.
    """
    q, n, _ = basis.shape
    return _commutator_gaps(*_schmidt_factors(np.reshape(k, (n, n, n, n)), q), basis)


def _commutator_gaps(left, right, tail, basis):
    """bimodule_gaps from a splitting of the map: left the stack (c, n, n) of the X_s of one
    whose partners are orthonormal, right the same for the Y_s^T of one whose X_s are, and
    tail bounding the Frobenius norm of what the splittings leave out."""
    q, n, _ = basis.shape
    c = len(left)
    # per basis element, two products of c n^2 elements a side; a chunk holds half of _CHUNK_ELEMENTS
    # in them, both sides at once when one element's fit, else a side at a time.  The gemms read
    # W_s[a, g] at [g, s, a]
    if 8 * c * n * n <= _CHUNK_ELEMENTS:
        sides = [(slice(0, 2), np.concatenate((left.transpose(2, 0, 1), right.transpose(2, 0, 1)), axis=1))]
    else:
        sides = [(slice(s, s + 1), np.ascontiguousarray(w.transpose(2, 0, 1))) for s, w in enumerate((left, right))]
    width = sides[0][1].shape[1]  # factors per chunk
    parts = chunk_slices(q, 4 * width * n * n)
    buffers = np.empty((2, min(q, parts[0].stop) * width * n * n), dtype=complex)
    squares = np.empty((q, 2))
    for side, w in sides:
        for part in parts:
            d_t = basis[part].swapaxes(1, 2)  # the d^T
            m = len(d_t)
            first, second = buffers[:, : m * width * n * n]
            # [t, b, i, a] = (W_i d_t)[a, b] - (d_t W_i)[a, b], from one gemm and one per d
            brackets = np.matmul(d_t.reshape(m * n, n), w.reshape(n, -1), out=first.reshape(m * n, -1))
            brackets -= np.matmul(w.reshape(-1, n), d_t, out=second.reshape(m, -1, n)).reshape(m * n, -1)
            flat = brackets.view(float).reshape(m, n, width // c, -1)
            squares[part, side] = np.einsum("tbhx,tbhx->th", flat, flat)
    gaps = np.sqrt(squares.T)
    if tail:
        gaps += 2 * tail * hs_norms(basis)
    return gaps


def unit_frame_gaps(left, right, tail, frame):
    """Upper bounds on bimodule_gaps at a basis whose rows x_s are the rotated matrix units
    f_s = u E_s u*, read in u's frame with no product per basis element: a (2, m) array.

    left and right are the two sides of a splitting as stacks (c, n, n) of
    the factors W whose commutators the gaps sum (a storage's splitting),
    and tail bounds what they leave out.
    frame = (u, rows, cols, eta) is algebras._unit_frame's: unit s is E_ij
    with (i, j) = (rows[s], cols[s]), u is None for the identity and
    eta = ||u*u - I|| < 1.

    Each factor is rotated once, W' = u* W u, at O(c n^3), and
    sum_W' ||[W', E_ij]||^2 is read per unit by index (unit_bracket_squares).
    With u None and x_s = E_s (eta 0) the sum over a side's factors is the
    gap itself.  Otherwise, with h = u*u, u* [W, f_s] u = W' E h - h E W' =
    [W', E] + W' E (h - I) - (h - I) E W' has norm at most
    ||[W', E]|| + 2 eta ||W'||, with ||W'|| <= (1 + eta) ||W||, and
    ||X|| <= ||u^-1||^2 ||u* X u|| with ||u^-1||^2 <= 1 / (1 - eta).  Summed
    over a side's factors in l2, with N^2 = sum ||W||^2, the gap at f_s is at most
        (frame_s + 2 eta (1 + eta) N) / (1 - eta),
    never below it, and above it by that slack and rounding.  As in
    _commutator_gaps, 2 ||x_s|| tail <= 2 (1 + eta) tail is added for what
    the splitting leaves out (||f_s|| <= 1 + eta).
    """
    u, rows, cols, eta = frame
    w = np.stack((left, right))
    gaps = np.sqrt(unit_bracket_squares(w if u is None else dagger(u) @ w @ u, rows, cols))
    return (gaps + 2 * eta * (1 + eta) * hs_norms(w)[:, None]) / (1 - eta) + 2 * tail * (1 + eta)


def unit_bracket_squares(w, rows, cols):
    """sum_W ||[W, E_ij]||^2 over a stack of matrices W (..., c, n, n), at each matrix unit E_ij with
    (i, j) = (rows[s], cols[s]), as (..., len(rows)): read by index, with no product.

    W E_ij holds W[:, i] in column j and E_ij W holds W[j, :] in row i, so
        ||[W, E_ij]||^2 = sum_{a != i} |W_ai|^2 + sum_{b != j} |W_jb|^2 + |W_ii - W_jj|^2,
    from the off-diagonal column and row sums of the W and their diagonals,
    O(c n^2 + c m) in all.  The off-diagonal sums are summed with the
    diagonal zeroed, never as a column norm less |W_ii|^2, which would
    cancel a bracket of rounding size against the O(1) diagonal up to about
    1e-8.  The terms are those of hs_norms of the brackets the products
    form, summed in another order.
    """
    n = w.shape[-1]
    diag = np.diagonal(w, axis1=-2, axis2=-1)
    split = diag[..., rows] - diag[..., cols]
    sq = w.real**2 + w.imag**2
    on = np.arange(n)
    sq[..., on, on] = 0.0
    return (sq.sum(axis=(-3, -2))[..., rows] + sq.sum(axis=(-3, -1))[..., cols]
            + (split.real**2 + split.imag**2).sum(axis=-2))


def apply_map(map_matrix, x):
    """The map with matrix map_matrix at one matrix or at each entry of a stacked (k, n, n) tensor."""
    n = x.shape[-1]
    return (x.reshape(-1, n * n) @ map_matrix.T).reshape(x.shape)


class MapStorage:
    """How a linear map K on M_n is kept: the protocol every map check reads (expectations._ModuleMap).

    SandwichSum, FactorPair and MatrixMap each give the map at a stack
    (__call__), its trace pre-adjoint, matrix(), idempotence_defect() and
    splitting(q), a splitting's two (c, n, n) sides for the module gaps at
    q basis elements (None: gaps from its own terms).  Shared here: the
    pullback density, the norm from two factor stacks' Grams (_stacks), the
    module gaps, and the outputs, values and range residual at a domain's
    orthonormal rows x_j; a storage overrides what its cost model needs.
    """

    def images(self, space):
        """The outputs K(x_j) at the space's orthonormal rows, as flat rows, read-only."""
        images = self(space.tensor).reshape(space.size, -1)
        images.flags.writeable = False
        return images

    def domain_values(self, rho, space):
        """Tr(rho K(x_j)) over the space's rows x_j, as Tr(sigma x_j), sigma the pre-adjoint at rho."""
        return space.flat @ self.pre_adjoint(rho).T.ravel()

    def pullback_density(self, rho):
        """Hermitian part of the density of x -> Tr(rho K(x)), the trace pre-adjoint at rho."""
        sigma = self.pre_adjoint(rho)
        return (sigma + dagger(sigma)) / 2

    @functools.cached_property
    def _grams(self):
        """The Gram matrices [<F_s, F_t>] of the two factor stacks F (_stacks), as (2, c, c)."""
        rows = self._stacks()
        return rows @ rows.conj().swapaxes(1, 2)

    def norm(self):
        """The Frobenius norm from the Grams: ||sum_s A_s (x) B_s||_F^2 = sum_st <A_s, A_t><B_s, B_t>."""
        return math.sqrt(max(0.0, float(np.sum(self._grams[0] * self._grams[1]).real)))

    def module_gaps(self, basis):
        """bimodule_gaps at a stacked basis (q, n, n), from the splitting (_commutator_gaps)."""
        return _commutator_gaps(*self.splitting(len(basis)), basis)

    def range_residual(self, range_space, space):
        """The HS norm of the outputs' residuals against the range space, a chunk of rows at a time."""
        width = self.n**2
        return math.hypot(*(hs_norm(range_space.residuals(self(space.tensor[part]).reshape(-1, width)))
                            for part in chunk_slices(space.size, 4 * self.count * width)))

    def range_bound(self, rows, classes, norm):
        """A bound on range_residual for a map of Frobenius norm norm, or inf (see the storages')."""
        return math.inf

    def conjugated(self, u):
        """x -> u* K(u x u*) u as a storage read at matrix units (at_units), or None if it has none."""
        return None


class MatrixMap(MapStorage):
    """The map as its n^2 x n^2 matrix K, composed with its domain's projection P (K = KP) and
    kept with its outputs k(x_j) at the domain's orthonormal rows x_j, both read-only.

    K is sum_j k(x_j) x_j*; on identity rows (full_matrix_algebra's) the
    outputs and K are k's transpose and k itself, set read-only in place,
    with no product, where both products are exact.
    """

    def __init__(self, k, space):
        k = require_finite(np.asarray(k, dtype=complex))
        if _identity_rows(space):
            self.k, self.outputs = k, np.ascontiguousarray(k.T)
        else:
            self.outputs = space.flat @ k.T
            self.k = self.outputs.T @ space.flat.conj()
        self.k.flags.writeable = self.outputs.flags.writeable = False
        self.n = space.ambient_dim

    def __call__(self, x):
        return apply_map(self.k, x)

    def pre_adjoint(self, rho):
        """The density sigma with Tr(sigma x) = Tr(rho K(x)) for every x: vec(sigma^T) = K^T vec(rho^T)."""
        return (self.k.T @ rho.T.ravel()).reshape(self.n, self.n).T

    def matrix(self):
        return self.k

    def images(self, space):
        return self.outputs

    def domain_values(self, rho, space):
        return self.outputs @ rho.T.ravel()

    def norm(self):
        return hs_norm(self.k)

    def idempotence_defect(self):
        return hs_norm(self.outputs @ self.k.T - self.outputs)

    def splitting(self, q):
        return _schmidt_factors(self.k.reshape((self.n,) * 4), q)

    def range_residual(self, range_space, space):
        return hs_norm(range_space.residuals(self.outputs))


def as_storage(k, space):
    """k itself when it is a MapStorage, else the MatrixMap of the matrix k on the space's rows."""
    return k if isinstance(k, MapStorage) else MatrixMap(k, space)


class SandwichSum(MapStorage):
    """The map x -> sum_t L_t x R_t on M_n, held as its r factor pairs: two stacked (r, n, n) arrays.

    Its matrix, sum_t sandwich_matrix(L_t, R_t), has n^4 entries; the
    methods here work from the factors instead, at O(r n^3) per matrix, and
    matrix() forms it only for a reader that needs it.
    """

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.count, self.n = left.shape[0], left.shape[-1]

    def __call__(self, x):
        """The map at one matrix or at each entry of a stacked (k, n, n) tensor.  Per chunk of
        entries one gemm forms every L_t x_j, and one multiplies [L_1 x_j ... L_r x_j] by the
        stacked [R_1; ...; R_r]."""
        r, n = self.count, self.n
        stack = x.reshape(-1, n, n)
        out = np.empty(stack.shape, dtype=complex)
        # per entry: the r products L_t x_j, and their copy in the second gemm's layout
        for part in chunk_slices(len(stack), 2 * r * n * n):
            xs = stack[part]
            k = len(xs)
            lx = self.left.reshape(r * n, n) @ xs.transpose(1, 0, 2).reshape(n, k * n)
            lx = lx.reshape(r, n, k, n).transpose(2, 1, 0, 3).reshape(k * n, r * n)
            out[part] = (lx @ self.right.reshape(r * n, n)).reshape(k, n, n)
        return out.reshape(x.shape)

    def conjugated(self, u):
        """The map x -> u* K(u x u*) u, as its factors u* L_t u and u* R_t u: O(r n^3); the map
        itself for u None, the identity."""
        if u is None:
            return self
        rotated = dagger(u) @ np.stack((self.left, self.right)) @ u
        return SandwichSum(rotated[0], rotated[1])

    def at_units(self, rows, cols):
        """K(E_ij) at the matrix units (i, j) = (rows[s], cols[s]), as a fresh (k, n, n) stack:
        sum_t L_t[:, i] R_t[j, :], one (n x r)(r x n) product per unit."""
        return self.left[:, :, rows].transpose(2, 1, 0) @ self.right[:, cols].transpose(1, 0, 2)

    def pre_adjoint(self, rho):
        """sum_t R_t rho L_t, the density sigma with Tr(sigma x) = Tr(rho K(x)) for every x."""
        r, n = self.count, self.n
        return (self.right @ rho).transpose(1, 0, 2).reshape(n, r * n) @ self.left.reshape(r * n, n)

    def matrix(self):
        """The n^2 x n^2 matrix: entry ((a, b), (c, e)) is sum_t L_t[a, c] R_t[e, b]."""
        r, n = self.count, self.n
        pairs = self.left.reshape(r, n * n).T @ self.right.swapaxes(1, 2).reshape(r, n * n)
        return pairs.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)

    def _stacks(self):
        """The L_t, then the R_t, as flat rows (2, r, n^2): K = sum_t L_t (x) R_t^T."""
        return np.stack((self.left, self.right)).reshape(2, self.count, -1)

    def idempotence_defect(self):
        """||K^2 - K||_F, from the r^2 + r Kronecker terms of K^2 - K, a bounded chunk of its rows at a time.

        L_s x R_s composed after L_t x R_t is (L_s L_t) x (R_t R_s), so K^2 - K
        is sum_q A_q (x) C_q^T over the pairs (A, C) = (L_s L_t, R_t R_s) and
        (L_t, -R_t); row (i, j) of its matrix holds sum_q A_q[i, a] C_q[b, j]
        at column (a, b), one gemm of inner dimension r^2 + r per chunk of
        rows i, O(r^2 n^4) in all.  For any orthonormal basis x_j of M_n this
        is the statistic (sum_j ||E(E(x_j)) - E(x_j)||^2)^(1/2).
        """
        r, n = self.count, self.n
        pairs = (self.left[:, None] @ self.left[None, :]).reshape(r * r, n, n)
        a = np.concatenate((pairs, self.left))
        c = np.concatenate(((self.right[None, :] @ self.right[:, None]).reshape(r * r, n, n), -self.right))
        # a[q, i, a'] laid out as rows (i, a'), c[q, b, j] as columns (b, j)
        a_rows = a.transpose(1, 2, 0).reshape(n * n, -1)
        c_cols = c.reshape(len(c), n * n)
        # per row i: n^3 entries of the defect, in chunks of at most a quarter of _CHUNK_ELEMENTS
        return math.hypot(*(hs_norm(a_rows[part.start * n : part.stop * n] @ c_cols)
                            for part in chunk_slices(n, 4 * n**3)))

    def splitting(self, q):
        """(left, right, 0) for any q: the (r, n, n) stacks of the L'_u of a splitting sum_u L'_u x Q_u
        with orthonormal Q_u and of the R'_u of one sum_u P_u x R'_u with orthonormal P_u.

        For the left side the right factors are orthonormalized, R = C Q with
        Q orthonormal rows and C = V Lambda^(1/2) from the eigendecomposition
        V Lambda V* of their Gram matrix, and L'_u = sum_t C[t, u] L_t; the
        right side takes the roles swapped.  Both come from one batched eigh
        of the two r x r Gram matrices, and the splittings are exact.
        """
        r, n = self.count, self.n
        eigs, v = np.linalg.eigh(self._grams)
        c = (v * np.sqrt(np.clip(eigs, 0.0, None))[:, None, :]).swapaxes(1, 2)
        left = (c[1] @ self.left.reshape(r, -1)).reshape(r, n, n)
        right = (c[0] @ self.right.reshape(r, -1)).reshape(r, n, n)
        return left, right, 0.0

    def range_bound(self, rows, classes, norm):
        """A bound on the range residual onto the span of a D with the pattern (u, B), blocks without
        multiplicity, one term per block: 3 delta ||K||_F + (1 + 3 delta) rho, (f, delta) = classes().

        With f_t = u p_t u* (expectations._class_projections) and
        delta = algebras._mask_gap(D), write L_t = f_t L_t + a_t and
        R_t = R_t f_t + c_t: K(x) = y + e(x) with y = sum_t f_t L_t x R_t f_t
        = u z u*, z = sum_t p_t (u* L_t x R_t u) p_t in B, and e of Frobenius
        norm at most rho = sum_t (||a_t|| ||R_t|| + ||f_t L_t|| ||c_t||),
        measured.  With eta = ||u*u - I|| and u = v h polar, p = v z v* in
        P = v B v* has ||y - p|| = ||h z h - z|| <= 3 eta ||y||, so with
        ||Q_D - Q_P|| <= delta dist(y, D) <= (3 eta + delta (1 + 3 eta)) ||y||
        <= 3 delta ||y|| (delta >= 3 eta); and sum_j ||K(x_j)||^2 <= ||K||_F^2.
        The block expectation's and pinching's a_t, c_t are u's defect and
        rounding; the check takes the bound at half its threshold.
        """
        f, delta = classes() or (None, None)
        if f is None or len(f) != self.count:
            return math.inf
        ends = np.stack((f @ self.left, self.right @ f))  # the f_t L_t, then the R_t f_t
        # the ||a_t|| then the ||c_t||, against the ||R_t|| then the ||f_t L_t||
        defects = hs_norms((np.stack((self.left, self.right)) - ends).reshape(-1, self.n, self.n))
        rho = float(defects @ hs_norms(np.concatenate((self.right, ends[0]))))
        return 3.0 * delta * norm + (1.0 + 3.0 * delta) * rho


class FactorPair(MapStorage):
    """The map with matrix K = U^T C on row-major flattened coordinates, held as its two (q, n^2)
    factors: K(x) = sum_s (C vec x)_s U_s, with U the range's rows and C the coefficients.

    Each method works at O(q n^2) per matrix or from q x q Gram matrices;
    matrix() forms K, n^4 entries, only for a reader that needs it.  It has
    no splitting: its module gaps come from its own terms, exact.
    """

    splitting = None

    def __init__(self, rows, coef):
        self.rows, self.coef = rows, coef
        self.count, self.n = len(rows), math.isqrt(rows.shape[1])

    def __call__(self, x):
        """The map at one matrix or at each entry of a stacked (k, n, n) tensor: two gemms of inner dimension n^2 and q."""
        flat = x.reshape(-1, self.n**2)
        return ((flat @ self.coef.T) @ self.rows).reshape(x.shape)

    def pre_adjoint(self, rho):
        """The density sigma with Tr(sigma x) = Tr(rho K(x)) for every x: vec(sigma^T) = C^T U vec(rho^T)."""
        n = self.n
        return ((self.rows @ rho.T.ravel()) @ self.coef).reshape(n, n).T

    def matrix(self):
        """The n^2 x n^2 matrix U^T C."""
        return self.rows.T @ self.coef

    def _stacks(self):
        """U, then C: K = sum_s U_s^T C_s."""
        return np.stack((self.rows, self.coef))

    def idempotence_defect(self):
        """||K^2 - K||_F = ||U^T W C||_F with W = C U^T - I, from q x q matrices:
        its square is Tr(W* conj(U) U^T W C C*).  W is formed before it is squared, so
        a defect of rounding size is not lost to cancellation against O(1) terms."""
        gu, gc = self._grams
        w = self.coef @ self.rows.T
        w.flat[:: self.count + 1] -= 1.0
        return math.sqrt(max(0.0, float(np.vdot(w, gu.T @ w @ gc).real)))

    def module_gaps(self, basis):
        """bimodule_gaps of the map at a stacked basis (p, n, n), exact: no sketch, no tail.

        For S = L_d (x -> dx), K S - S K = U^T (C S) - (S U^T) C.  With
        M = <S U_s, U_t> the coefficients of S U_s on the rows, X = C S - M^T C
        and R = S U^T - U^T M^T (the residual of S U_s against the rows, column s),
        K S - S K = U^T X - R C exactly, whatever M is.  Its squared Frobenius
        norm is Tr(conj(G_U) X X*) + Tr(R* R C C*) - 2 Re Tr(conj(U) R C X*),
        with q x q matrices only, and X and R are formed before they are
        squared, so a gap of rounding size stays one.  Row s of C S is
        vec(d^T C_s), column s of S U^T is vec(d U_s), with C_s and U_s the rows
        as n x n matrices; for S = R_d (x -> xd) they are vec(C_s d^T) and
        vec(U_s d).  O(q n^3 + q^2 n^2) per basis element, a chunk of the basis at a time.
        """
        q, n = self.count, self.n
        u = self.rows.reshape(q, n, n)
        c = self.coef.reshape(q, n, n)
        rows_h = dagger(self.rows)
        gu, gc = self._grams
        gaps = np.empty((2, len(basis)))
        # per basis element, both sides at once: the 2q products with U and with C, and the residual
        for part in chunk_slices(len(basis), 12 * q * n * n):
            d = basis[part, None]
            d_t = d.swapaxes(-1, -2)
            su = np.concatenate((d @ u, u @ d)).reshape(-1, q, n * n)
            m = su @ rows_h  # m[j, s, t] = <S U_s, U_t>
            x = np.concatenate((d_t @ c, c @ d_t)).reshape(-1, q, n * n) - m.swapaxes(1, 2) @ self.coef
            r = su - m @ self.rows  # row s: S U_s - sum_t m[s, t] U_t
            x_h = dagger(x)
            squares = (np.einsum("ts,jts->j", gu, x @ x_h) + np.einsum("jst,ts->j", r.conj() @ r.swapaxes(1, 2), gc)
                       - 2 * np.einsum("jst,jts->j", (r @ rows_h).swapaxes(1, 2), self.coef @ x_h)).real
            gaps[:, part] = np.sqrt(np.clip(squares, 0.0, None)).reshape(2, -1)
        return gaps

    def range_bound(self, rows, classes, norm):
        """0 when the rows are the range's own, so every output sum_s (C vec x)_s U_s is in it; else inf."""
        return 0.0 if self.rows is rows else math.inf


def constraint_system(rows):
    """The rows vec(a_j^T) of the given matrices a_j, a list or a stacked (k, n, n) array,
    so Tr(r a_j) = (system @ vec(r))_j."""
    try:
        stack = np.asarray(rows, dtype=complex)
    except ValueError as err:
        raise DimensionMismatch("constraints mix matrix sizes") from err
    if len(stack) == 0:
        raise EmptyInput("no matching constraints")
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {stack.shape}")
    k, n, _ = require_finite(stack).shape
    return stack.transpose(0, 2, 1).reshape(k, n * n)


def minimal_norm_solution(system, rhs):
    """Minimal-Frobenius-norm r with system @ vec(r) = rhs, for a constraint_system."""
    n = math.isqrt(system.shape[1])
    sol, *_ = np.linalg.lstsq(system, np.asarray(rhs, dtype=complex), rcond=None)
    return sol.reshape(n, n)
