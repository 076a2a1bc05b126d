"""Unital subalgebras of M_n held as orthonormal spanning sets.

A Subalgebra is product-closed and contains the identity; a StarAlgebra
is additionally adjoint-closed.  Everything downstream works with the
orthonormal basis of the span, so commutants and relative commutants
reduce to kernel computations on coordinates.
"""

import numpy as np

from .config import tol
from .errors import DimensionMismatch, EmptyInput, InvariantViolation
from .linalg import (
    OperatorSubspace,
    as_matrix,
    chunk_slices,
    dagger,
    hs_norm,
    hs_norms,
    null_space_rows,
    orthonormalize,
    pair_products,
    same_subspace,
    subspace_intersection,
    subspace_sum,
)


def _adjoint_space(space):
    """Span of the adjoints; adjoint is an HS isometry so rows stay orthonormal."""
    b = space.tensor
    flat = np.conj(np.transpose(b, (0, 2, 1))).reshape(space.size, -1)
    return OperatorSubspace(space.ambient_dim, flat)


class Subalgebra:
    """Unital, product-closed subspace of M_n. Not necessarily adjoint-closed."""

    star_closed = False

    def __init__(self, space, check=True):
        self.space = space
        self.n = space.ambient_dim
        self.blocks = None
        if check:
            self.validate()

    @property
    def dim(self):
        return self.space.size

    @property
    def basis(self):
        return self.space.basis

    def project(self, x):
        return self.space.project(x)

    def contains(self, x):
        return self.space.contains(x)

    def validate(self):
        if self.dim == 0:
            raise InvariantViolation("identity: algebra span is empty")
        eye = np.eye(self.n, dtype=complex)
        gap = hs_norm(eye - self.space.project(eye))
        if gap > tol(1e-9) * max(1.0, np.sqrt(self.n)):
            raise InvariantViolation(f"identity: I is not in the span (distance {gap:.3e})")
        b = self.space.tensor
        defects, allowed = [], []
        # all basis products, a chunk of left factors at a time; per factor, three
        # (dim, n^2) arrays: the products, their projection and the residual
        for part in chunk_slices(self.dim, 3 * self.dim * self.n**2):
            products = pair_products(b[part], b).reshape(-1, self.n**2)
            defects.append(self.space.residuals(products))
            allowed.append(tol(1e-9) * np.maximum(1.0, hs_norms(products)))
        defects, allowed = np.concatenate(defects), np.concatenate(allowed)
        if np.any(defects > allowed):
            raise InvariantViolation(
                f"product closure: a basis product leaves the span (defect {defects.max():.3e})"
            )

    def is_abelian(self):
        b = self.space.tensor
        products = pair_products(b, b)
        comm = products - products.swapaxes(0, 1)
        return float(np.abs(comm).max()) <= tol(1e-9) if comm.size else True


class StarAlgebra(Subalgebra):
    """Unital *-subalgebra of M_n: adjoint-closed on top of Subalgebra."""

    star_closed = True

    def validate(self):
        super().validate()
        b = self.space.tensor
        adjoints = np.conj(np.transpose(b, (0, 2, 1))).reshape(self.dim, self.n**2)
        defects = self.space.residuals(adjoints)
        if np.any(defects > tol(1e-9)):
            raise InvariantViolation(
                f"adjoint closure: a basis adjoint leaves the span (defect {defects.max():.3e})"
            )


def from_spanning(mats, star=True):
    space = orthonormalize(mats)
    return StarAlgebra(space) if star else Subalgebra(space)


def full_matrix_algebra(n):
    return StarAlgebra(OperatorSubspace(n, np.eye(n * n, dtype=complex)), check=False)


def scalar_algebra(n):
    return from_spanning([np.eye(n)])


def diagonal_algebra(n):
    return from_spanning([np.diag(np.eye(n)[k]) for k in range(n)])


def _check_partition(n, blocks):
    seen = sorted(i for blk in blocks for i in blk)
    if seen != list(range(n)) or any(len(blk) == 0 for blk in blocks):
        raise InvariantViolation(f"partition: blocks must partition range({n}), got {blocks}")


def _unit_matrix(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def block_diagonal_algebra(n, blocks):
    """*-algebra of matrices supported on the diagonal blocks of the given index partition."""
    _check_partition(n, blocks)
    mats = [_unit_matrix(n, i, j) for blk in blocks for i in blk for j in blk]
    alg = from_spanning(mats)
    alg.blocks = [list(blk) for blk in blocks]
    return alg


def block_upper_triangular(n, blocks):
    """Algebra of matrices with E_ij allowed iff block(i) comes at or before block(j)."""
    _check_partition(n, blocks)
    which = {}
    for t, blk in enumerate(blocks):
        for i in blk:
            which[i] = t
    mats = [_unit_matrix(n, i, j) for i in range(n) for j in range(n) if which[i] <= which[j]]
    alg = from_spanning(mats, star=False)
    alg.blocks = [list(blk) for blk in blocks]
    return alg


def _closure_pass(space):
    b = space.tensor
    products = pair_products(b, b).reshape(-1, space.ambient_dim, space.ambient_dim)
    return orthonormalize(list(space.basis) + list(products))


def generate_algebra(generators, ambient_dim=None, star=True):
    """Smallest unital (*-)algebra containing the generators.

    Seeds with the identity, the generators, and (in the star case) their
    adjoints, then alternates multiplication with orthonormalization until
    the dimension stops growing.
    """
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise EmptyInput("need at least one generator")
    n = gens[0].shape[0]
    if ambient_dim is not None and ambient_dim != n:
        raise DimensionMismatch(f"generators are {n}x{n}, ambient_dim={ambient_dim}")
    seed = [np.eye(n, dtype=complex)] + gens
    if star:
        seed += [dagger(g) for g in gens]
    space = orthonormalize(seed)
    for _ in range(n * n):
        grown = _closure_pass(space)
        if grown.size == space.size:
            break
        space = grown
    return StarAlgebra(space) if star else Subalgebra(space)


def generate_star_algebra(generators, ambient_dim=None):
    return generate_algebra(generators, ambient_dim, star=True)


def _generating_set(s):
    if isinstance(s, Subalgebra):
        return s.basis
    if isinstance(s, OperatorSubspace):
        return s.basis
    return [as_matrix(m) for m in s]


def commutant(s, within=None):
    """{x in within : [x, b] = 0 for every b in s}, as a StarAlgebra.

    Solved on within's coordinates: stack the maps c -> vec([sum c_k w_k, b])
    over the b's and take the kernel.
    """
    gens = _generating_set(s)
    if not gens:
        raise EmptyInput("commutant of an empty set")
    n = gens[0].shape[0]
    if within is None:
        within = full_matrix_algebra(n)
    if within.n != n:
        raise DimensionMismatch(f"set lives in M_{n}, within in M_{within.n}")
    w = within.space.tensor
    b = np.stack(gens)[:, None]
    brackets = w @ b
    brackets -= b @ w
    # one row per (generator, entry of [w_k, b]), one column per k
    rows = np.swapaxes(brackets.reshape(len(gens), within.dim, n * n), 1, 2)
    coeffs = null_space_rows(rows.reshape(-1, within.dim))
    flat = coeffs @ within.space.flat
    return StarAlgebra(OperatorSubspace(n, flat))


def check_ss_density(a, m):
    """True iff span(A u A*) has the same dimension as M."""
    total = subspace_sum(a.space, _adjoint_space(a.space))
    return total.size == m.dim


def diagonal_part_check(a, d, phi=None):
    """True iff A intersect A* has exactly the span of D.

    When the character map phi is supplied it must also fix that
    intersection pointwise (for a genuine character this is automatic).
    """
    inter = subspace_intersection(a.space, _adjoint_space(a.space))
    verdict = same_subspace(inter, d.space)
    if phi is not None and verdict:
        for b in inter.basis:
            if hs_norm(phi(b) - b) > tol(1e-8):
                return False
    return verdict


def unitary_conjugate_algebra(alg, u):
    """The algebra u S u*; same flavor as the input, block metadata dropped."""
    space = OperatorSubspace(alg.n, [(u @ b @ dagger(u)).ravel() for b in alg.basis])
    return type(alg)(space)
