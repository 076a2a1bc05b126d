"""Dense complex matrices: Hermitian functional calculus and Hilbert-Schmidt geometry.

Conventions used throughout the package:

* inner product ``<X, Y> = Tr(Y* X)``, linear in the first slot;
* matrices are flattened row-major (C order), so the map ``x -> a x b``
  has matrix ``kron(a, b.T)`` on flattened coordinates;
* "positive definite" means smallest eigenvalue above ``pd_tol(X)``,
  which is 1e-10 times the spectral norm.  Operations that need strict
  positivity fail loudly below that; nothing is ever regularized.
"""

import math

import numpy as np

from .config import tol
from .errors import (
    DimensionMismatch,
    EmptyInput,
    InvariantViolation,
    NotHermitian,
    NotPositiveDefinite,
)


def as_matrix(x):
    """Coerce to a square complex ndarray and check the entries are finite."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return require_finite(m)


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
    return float(hs_norms((x @ basis - basis @ x).reshape(-1, n, n)).max(initial=0.0))


def is_hermitian(x, atol=None):
    if atol is None:
        atol = tol(1e-10) * max(1.0, hs_norm(x))
    return hs_norm(x - dagger(x)) <= atol


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


def eigh_hermitian(x):
    x = as_matrix(x)
    if not is_hermitian(x):
        raise NotHermitian(f"matrix is not Hermitian within tolerance (defect {hs_norm(x - dagger(x)):.3e})")
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
    cutoff = pd_tol(spec.norm)
    if eigs.size == 0 or eigs[0] <= cutoff:
        raise NotPositiveDefinite(
            f"{what} needs a positive definite argument (min eigenvalue {eigs[0] if eigs.size else 0:.3e})"
        )


def psd_sqrt(x):
    """Square root of a positive semidefinite matrix, tiny negative eigenvalues clipped to zero."""
    spec = eigh_hermitian(x)
    eigs = spec.eigenvalues
    if eigs.size and eigs[0] < -pd_tol(spec.norm) - tol(1e-14):
        raise NotPositiveDefinite(f"matrix is not positive semidefinite (min eigenvalue {eigs[0]:.3e})")
    return spec.apply(lambda v: np.sqrt(np.clip(v, 0.0, None)))


def matpow(x, p):
    """x**p for Hermitian x; negative p requires positive definiteness."""
    spec = eigh_hermitian(x)
    if p < 0:
        _require_pd(spec, f"power {p}")
        return spec.apply(lambda v: v**p)
    # nonnegative powers tolerate a numerically semidefinite argument
    if spec.eigenvalues.size and spec.eigenvalues[0] < -pd_tol(spec.norm) - tol(1e-14):
        raise NotPositiveDefinite(f"power {p} of an indefinite matrix (min eigenvalue {spec.eigenvalues[0]:.3e})")
    return spec.apply(lambda v: np.clip(v, 0.0, None) ** p)


def imag_power(x, t):
    """x**(it) = exp(it log x) for positive definite Hermitian x; the result is unitary."""
    spec = eigh_hermitian(x)
    _require_pd(spec, "imaginary power")
    return spec.apply(lambda v: np.exp(1j * t * np.log(v)))


class OperatorSubspace:
    """Subspace of M_n under <X,Y> = Tr(Y*X), held as stacked orthonormal flat rows."""

    def __init__(self, ambient_dim, flat):
        self.ambient_dim = int(ambient_dim)
        self.flat = np.asarray(flat, dtype=complex).reshape(-1, self.ambient_dim**2)

    @property
    def size(self):
        return self.flat.shape[0]

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
        x = as_matrix(x)
        if x.shape[0] != self.ambient_dim:
            raise DimensionMismatch(f"ambient dim {self.ambient_dim}, matrix dim {x.shape[0]}")
        return self.flat.conj() @ x.ravel()

    def from_coords(self, c):
        n = self.ambient_dim
        return (np.asarray(c, dtype=complex) @ self.flat).reshape(n, n)

    def project(self, x):
        return self.from_coords(self.coords(x))

    def residuals(self, rows):
        """HS distance from the span of each flattened matrix in rows (k, n^2)."""
        return hs_norms(rows - (rows @ self.flat.conj().T) @ self.flat)

    def contains(self, x):
        x = as_matrix(x)
        return hs_norm(x - self.project(x)) <= tol(1e-8) * max(1.0, hs_norm(x))

    def projector_matrix(self):
        """The n^2 x n^2 matrix of the orthogonal projection onto this subspace (the tests' oracle)."""
        return self.flat.T @ self.flat.conj()


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


def bimodule_gaps(k, basis):
    """Module gaps of the map K with matrix k at each element d of a stacked basis (q, n, n).

    Row 0 of the (2, q) result holds the left gaps ||K L_d - L_d K||_F,
    row 1 the right gaps ||K R_d - R_d K||_F, with L_d and R_d the
    matrices of x -> dx and x -> xd, over all of M_n.  k is read as the
    4-tensor t[a, b, g, e] = K(E_ge)[a, b], and each of K L_d, L_d K,
    K R_d and R_d K is a mode product of t with d: per chunk of the basis,
    one gemm of inner dimension n, so O(q n^5) flops in all.  No n^2 x n^2
    side matrix and no product of a domain basis is formed.

    The map checks store K = KP, P the projection onto their domain.  For
    S = L_d or R_d, ||KS - SK||^2 = ||(KS - SK)P||^2 + ||KPSP'||^2 with
    P' = I - P, so these gaps are never below the module gaps on the
    domain, ||(KS - SK)P||, and equal them when PSP' = 0, that is when the
    domain is closed under multiplication by d* on that side.  Every domain
    the checks see is: M for the expectations, and for a character an
    algebra A that contains the *-algebra D, which its check confirms first.
    """
    q, n, _ = basis.shape
    t = np.ascontiguousarray(k).reshape(n, n, n, n)
    gaps = np.empty((2, q))
    # per element d: the two n^4 products of one side; the sides take turns
    parts = chunk_slices(q, 2 * n**4)
    # left: (L_d K)[a, b, g, e] = sum_c d[a, c] t[c, b, g, e]; (K L_d)[a, b, h, e] = sum_g d[g, h] t[a, b, g, e]
    regrouped = t.transpose(2, 0, 1, 3).reshape(n, -1)
    for part in parts:
        d = basis[part]
        c = len(d)
        above = d.swapaxes(1, 2).reshape(c * n, n)  # the transposes d^T, one above the other
        side = (d.reshape(c * n, n) @ t.reshape(n, -1)).reshape(c, n, n, n, n)
        side -= (above @ regrouped).reshape(c, n, n, n, n).transpose(0, 2, 3, 1, 4)
        gaps[0, part] = hs_norms(side)
    # right: (R_d K)[a, b, g, e] = sum_c t[a, c, g, e] d[c, b]; (K R_d)[a, b, g, f] = sum_e t[a, b, g, e] d[f, e]
    regrouped = t.transpose(1, 0, 2, 3).reshape(n, -1)
    for part in parts:
        d = basis[part]
        c = len(d)
        above = d.swapaxes(1, 2).reshape(c * n, n)
        beside = d.transpose(2, 0, 1).reshape(n, c * n)  # the d^T side by side
        side = (above @ regrouped).reshape(c, n, n, n, n)
        side -= (t.reshape(-1, n) @ beside).reshape(n, n, n, c, n).transpose(3, 1, 0, 2, 4)
        gaps[1, part] = hs_norms(side)
    return gaps


def apply_map(map_matrix, x):
    """The map with matrix map_matrix at one matrix or at each entry of a stacked (k, n, n) tensor."""
    n = x.shape[-1]
    return (x.reshape(-1, n * n) @ map_matrix.T).reshape(x.shape)


def constraint_system(rows):
    """The rows vec(a_j^T) of the given matrices a_j, so Tr(r a_j) = (system @ vec(r))_j."""
    mats = [as_matrix(a) for a in rows]
    if not mats:
        raise EmptyInput("no matching constraints")
    return np.array([a.T.ravel() for a in mats])


def minimal_norm_solution(system, rhs):
    """Minimal-Frobenius-norm r with system @ vec(r) = rhs, for a constraint_system."""
    n = math.isqrt(system.shape[1])
    sol, *_ = np.linalg.lstsq(system, np.asarray(rhs, dtype=complex), rcond=None)
    return sol.reshape(n, n)
