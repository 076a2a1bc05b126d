"""Dense n^2 x n^2 operators on row-major flattened matrices, kept as the test oracle.

The package checks its maps through their values on a domain basis, and
their module property through mode products on the map's 4-tensor, and
forms none of these; the tests compare those statistics with the formulas
below, which spell the same quantities out with explicit left and right
multiplication, sandwich and complement matrices.  The commutant is here
too, solved in one piece from the brackets with every element of the set.
"""

import numpy as np

from ncrep.config import tol
from ncrep.linalg import OperatorSubspace


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
