"""Dense n^2 x n^2 operators on row-major flattened matrices, kept as the test oracle.

The package checks its maps through their values on a domain basis and
forms none of these; the tests compare those statistics with the formulas
below, which spell the same quantities out with explicit left and right
multiplication, sandwich and complement matrices.
"""

import numpy as np


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
