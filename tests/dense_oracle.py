"""Dense n^2 x n^2 operators on row-major flattened matrices, kept as the test oracle.

The package checks its maps through their values on a domain basis, and
their module property through mode products on the map's 4-tensor, and
forms none of these; the tests compare those statistics with the formulas
below, which spell the same quantities out with explicit left and right
multiplication, sandwich and complement matrices.  The commutant is here
too, solved in one piece from the brackets with every element of the set,
and so are the centrality probes as they were before they became gemms:
the draw-by-draw projection sampler, the broadcast p d k - k d p
contraction and the einsum central violation.
"""

import numpy as np

from ncrep.config import tol
from ncrep.linalg import OperatorSubspace, dagger, eigh_hermitian, hs_norm


def left_mult_matrix(a):
    """Matrix of x -> a x."""
    return np.kron(np.asarray(a, dtype=complex), np.eye(len(a)))


def right_mult_matrix(b):
    """Matrix of x -> x b."""
    return np.kron(np.eye(len(b)), np.asarray(b, dtype=complex).T)


def sandwich(a, b):
    """Matrix of x -> a x b."""
    return left_mult_matrix(a) @ right_mult_matrix(b)


def map_matrix_from_action(action, n):
    """The n^2 x n^2 matrix of a linear map, column by column from its values at the matrix units."""
    cols = np.zeros((n * n, n * n), dtype=complex)
    for k in range(n * n):
        e = np.zeros((n, n), dtype=complex)
        e.flat[k] = 1.0
        cols[:, k] = action(e).ravel()
    return cols


def perp_projector_matrix(space):
    """Matrix of the orthogonal projection onto the complement of an operator subspace."""
    return np.eye(space.ambient_dim**2) - space.projector_matrix()


def bracket_stack_commutant(gens, within):
    """{x in within : [x, b] = 0 for each b in gens}, as an OperatorSubspace.

    One full SVD of the stack of the maps c -> vec([sum c_k w_k, b]) over all
    b at once, w_k within's orthonormal basis; the rank cutoff is
    null_space_rows', 1e-9 times the largest singular value with a floor of 1e-9.
    """
    w = within.space.tensor
    n = w.shape[-1]
    b = np.stack(gens)[:, None]
    brackets = w @ b - b @ w
    # one row per (generator, entry of [w_k, b]), one column per k
    rows = np.swapaxes(brackets.reshape(len(gens), len(w), n * n), 1, 2).reshape(-1, len(w))
    # never wide (n^2 rows per generator, at most n^2 columns), so the thin vh is square
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > tol(1e-9) * max(1.0, float(s[0]))))
    return OperatorSubspace(n, vh[rank:].conj() @ within.space.flat)


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


def loop_sample_projections(d, cap=64):
    """I plus spectral projections of Hermitian combinations, one draw and one
    eigendecomposition at a time, always 4 * cap draws unless cap projections are found."""
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


def broadcast_local_violation(omega, projections, d, m):
    """max |Tr((p d k - k d p) x)|, k = p rho p, by broadcast matmuls over every p and d."""
    db = d.space.tensor
    mb = m.space.tensor
    ps = np.stack(projections)[:, None]
    ks = ps @ omega.density @ ps
    left = ps @ db @ ks - ks @ db @ ps
    vals = left.reshape(-1, d.n**2) @ np.swapaxes(mb, 1, 2).reshape(len(mb), -1).T
    return float(np.abs(vals).max())


def einsum_central_violation(omega, d, m):
    """max |Tr((rho d - d rho) x)| over the bases of D and M, by einsum."""
    db = d.space.tensor
    comm = omega.density @ db - db @ omega.density
    return float(np.abs(np.einsum("aij,bji->ab", comm, m.space.tensor)).max())
