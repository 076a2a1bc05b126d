"""Unital subalgebras of M_n held as orthonormal spanning sets.

A Subalgebra is product-closed and contains the identity; a StarAlgebra
is additionally adjoint-closed.  Everything downstream works with the
orthonormal basis of the span.  A commutant is a kernel on the
coordinates of the enclosing algebra, restricted one batch of generators
at a time: first two seeded generic combinations of the set, which almost
always generate the algebra it generates, then, only if the result fails
its commutation certificate against the whole set, the set's own elements
a bounded chunk at a time.

An algebra's basis rows are read-only, and an algebra keeps a store of the
data that depends on it alone (Subalgebra.derived): its commutant within
each enclosing algebra, and its sampled projections per cap
(states.sample_projections).  Each is computed on first request and then
read back, so a D that several states are probed on is solved once.
Nothing that depends on a functional is kept there.
"""

import functools

import numpy as np

from .config import tol
from .errors import BadPartition, DimensionMismatch, EmptyInput, InvariantViolation, check
from .linalg import (
    OperatorSubspace,
    as_matrix,
    chunk_slices,
    commutation_gap,
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


def _adjoint_defects(space):
    """HS distance of each basis element's adjoint from the span."""
    return space.residuals(_adjoint_space(space).flat)


def _read_only(space):
    """space itself when no array its rows view can be written, else the same
    rows copied into a read-only array, so that no caller's array is shared."""
    rows = space.flat
    while isinstance(rows, np.ndarray):
        if rows.flags.writeable:
            rows = space.flat.copy()
            rows.flags.writeable = False
            return OperatorSubspace(space.ambient_dim, rows)
        rows = rows.base
    return space


class Subalgebra:
    """Unital, product-closed subspace of M_n, on read-only basis rows. Not necessarily adjoint-closed."""

    star_closed = False

    def __init__(self, space, check=True):
        self.space = _read_only(space)
        self.n = space.ambient_dim
        self.blocks = None
        self._derived = {}
        if check:
            self.validate()

    def derived(self, key, compute):
        """compute() on the first request for key, then the kept value: for data
        that depends on this algebra alone (and on objects named in key)."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

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
        check(InvariantViolation, "identity: I is not in the span (distance {:.3e})",
              hs_norm(eye - self.space.project(eye)), tol(1e-9) * max(1.0, np.sqrt(self.n)))
        b = self.space.tensor
        # all basis products, a chunk of left factors at a time; per factor, three
        # (dim, n^2) arrays: the products, their projection and the residual
        for part in chunk_slices(self.dim, 3 * self.dim * self.n**2):
            products = pair_products(b[part], b).reshape(-1, self.n**2)
            check(InvariantViolation, "product closure: a basis product leaves the span (defect {:.3e})",
                  self.space.residuals(products), tol(1e-9) * np.maximum(1.0, hs_norms(products)))

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
        check(InvariantViolation, "adjoint closure: a basis adjoint leaves the span (defect {:.3e})",
              _adjoint_defects(self.space), tol(1e-9))


def from_spanning(mats, star=True):
    space = orthonormalize(mats)
    return StarAlgebra(space) if star else Subalgebra(space)


def full_matrix_algebra(n):
    rows = np.eye(n * n, dtype=complex)
    rows.flags.writeable = False
    return StarAlgebra(OperatorSubspace(n, rows), check=False)


def scalar_algebra(n):
    return from_spanning([np.eye(n)])


def diagonal_algebra(n):
    return from_spanning([np.diag(np.eye(n)[k]) for k in range(n)])


def _check_partition(n, blocks):
    seen = sorted(i for blk in blocks for i in blk)
    if seen != list(range(n)) or any(len(blk) == 0 for blk in blocks):
        raise BadPartition(f"partition: blocks must partition range({n}), got {blocks}")


def _unit_matrix(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def block_diagonal_algebra(n, blocks):
    """*-algebra of matrices supported on the diagonal blocks of the given index partition."""
    return _block_algebra(n, blocks, star=True)


def block_upper_triangular(n, blocks):
    """Algebra of matrices with E_ij allowed iff block(i) comes at or before block(j)."""
    return _block_algebra(n, blocks, star=False)


def _block_algebra(n, blocks, star, check=True):
    """block_diagonal_algebra (star) or block_upper_triangular, tagged with the
    blocks; check=False skips the validation, for a caller that validates what
    it makes of the result."""
    _check_partition(n, blocks)
    if star:
        pairs = [(i, j) for blk in blocks for i in blk for j in blk]
    else:
        which = {i: t for t, blk in enumerate(blocks) for i in blk}
        pairs = [(i, j) for i in range(n) for j in range(n) if which[i] <= which[j]]
    space = orthonormalize([_unit_matrix(n, i, j) for i, j in pairs])
    alg = StarAlgebra(space, check) if star else Subalgebra(space, check)
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


# seed of the generic combinations that open every commutant solve
_GENERIC_SEED = 1962


@functools.lru_cache(maxsize=64)
def _generic_coefficients(k):
    """(2, k) complex Gaussian coefficients from the fixed seed, scaled so that
    they combine an orthonormal stack into elements of norm about 1."""
    parts = np.random.default_rng(_GENERIC_SEED).standard_normal((2, 2, k))
    coeffs = (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2 * k)
    coeffs.flags.writeable = False
    return coeffs


def _generic_pair(stack):
    """Two seeded generic combinations of a stack (k, n, n)."""
    k, n, _ = stack.shape
    return (_generic_coefficients(k) @ stack.reshape(k, n * n)).reshape(2, n, n)


def _restrict(flat, gens):
    """Orthonormal rows spanning {x in span(flat) : [x, g] = 0 for each g in gens}.

    For orthonormal rows w_k of flat, the kernel rows c of the system
    sum_k c_k [w_k, g] = 0 (all g), from null_space_rows, give the result
    c @ flat, whose rows are orthonormal again.
    """
    n = gens.shape[-1]
    w = flat.reshape(-1, 1, n, n)
    brackets = w @ gens
    brackets -= gens @ w
    # row k is w_k's brackets with all of gens; the system is its transpose, a view
    return null_space_rows(brackets.reshape(len(flat), -1).T) @ flat


def _commutes_with(flat, stack, threshold):
    """True iff every [x_j, b] is at most threshold, x_j the rows of flat and b in stack."""
    n = stack.shape[-1]
    basis = flat.reshape(-1, n, n)
    # per x_j: the brackets with the whole stack, and the two products behind them
    return all(
        commutation_gap(basis[part], stack) <= threshold
        for part in chunk_slices(len(basis), 3 * len(stack) * n * n)
    )


def commutant(s, within=None):
    """{x in within : [x, b] = 0 for every b in s}.

    A StarAlgebra when the result is adjoint-closed, which it is whenever s
    and within are; a Subalgebra otherwise (the commutant of a Jordan block
    N in M_2 is span{I, N}).

    Solved on coordinates, one batch of generators at a time: the current
    space (at first within's) is cut to the kernel of its brackets with the
    batch.  The first batch is s itself when s has at most two elements and
    otherwise two seeded generic combinations of s.  Each result contains
    s', and once every [x, b], x in its basis and b in s, is below the rank
    cutoff of the full bracket system, it equals s'.  Until that certificate
    passes, the later batches are s's own elements a chunk at a time, and
    the last of them leaves the exact kernel, so memory stays at one
    batch's brackets and the current space.

    For an algebra s the result is kept in s's derived store, one per
    within (None or the within object, whose basis the result's rows are
    built from), and later calls return that same object.  Both bases are
    read-only, so the kept result cannot go stale.
    """
    gens = _generating_set(s)
    if not gens:
        raise EmptyInput("commutant of an empty set")
    n = gens[0].shape[0]
    if within is not None and within.n != n:
        raise DimensionMismatch(f"set lives in M_{n}, within in M_{within.n}")
    if isinstance(s, Subalgebra):
        return s.derived(("commutant", within), lambda: _solve_commutant(np.stack(gens), within))
    return _solve_commutant(np.stack(gens), within)


def _solve_commutant(stack, within):
    """commutant past its argument checks, for a stacked set (k, n, n)."""
    n = stack.shape[-1]
    if within is None:
        within = full_matrix_algebra(n)
    if len(stack) <= 2:
        flat = _restrict(within.space.flat, stack)
    else:
        flat = _restrict(within.space.flat, _generic_pair(stack))
        # null_space_rows' cutoff on the full system, whose norm is at most 2 ||s||
        threshold = tol(1e-9) * max(1.0, 2.0 * hs_norm(stack))
        # per generator: its brackets with the current basis, the product behind them and the solver's copy
        for part in chunk_slices(len(stack), 3 * len(flat) * n * n):
            if _commutes_with(flat, stack, threshold):
                break
            flat = _restrict(flat, stack[part])
    flat.flags.writeable = False
    result = Subalgebra(OperatorSubspace(n, flat))
    if np.all(_adjoint_defects(result.space) <= tol(1e-9)):
        # the adjoint check just made is all that StarAlgebra.validate adds
        result = StarAlgebra(result.space, check=False)
    return result


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
        return bool(np.all(hs_norms(inter.flat @ phi.map_matrix.T - inter.flat) <= tol(1e-8)))
    return verdict


def unitary_conjugate_algebra(alg, u):
    """The algebra u S u*; same flavor as the input, block metadata dropped."""
    space = OperatorSubspace(alg.n, [(u @ b @ dagger(u)).ravel() for b in alg.basis])
    return type(alg)(space)
