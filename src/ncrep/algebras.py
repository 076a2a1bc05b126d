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

The block constructions also record a pattern (u, mask): the algebra is
u B u* for B the matrices supported on the allowed entries mask of a block
diagonal or block upper triangular partition, and u is None in coordinates.
unitary_conjugate_algebra composes its rotation into the record, and
corner_algebra carries it to the corner cut by a projection that commutes
with the algebra.  A patterned algebra's product closure is certified from
its rotated basis, without forming the (dim)^2 basis products
(Subalgebra.validate), and a character on it is checked on the rotated
matrix units.
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
    """Unital, product-closed subspace of M_n, on read-only basis rows. Not necessarily adjoint-closed.

    pattern is None or (u, mask), set by the block constructions before
    they validate: the span should be u B u* with B the matrices supported
    on the boolean (n, n) mask, a product-closed pattern, and u None for the
    identity.  validate() then certifies product closure from the rotated
    basis; see there.
    """

    star_closed = False

    def __init__(self, space, check=True):
        self.space = _read_only(space)
        self.n = space.ambient_dim
        self.blocks = None
        self.pattern = None
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
        """Check that the span is nonempty, holds I and is product-closed.

        Product closure means that every basis product x_a x_b lies within
        tol(1e-9) max(1, ||x_a x_b||) of the span.  A patterned algebra
        first tries a certificate that forms no product (_closure_certified);
        when it does not pass, and for every algebra without a pattern, the
        products are formed and projected pair by pair.  A certificate that
        does not pass is no verdict, so the error class, the message and the
        first failing check are those of the pairwise route.
        """
        if self.dim == 0:
            raise InvariantViolation("identity: algebra span is empty")
        eye = np.eye(self.n, dtype=complex)
        check(InvariantViolation, "identity: I is not in the span (distance {:.3e})",
              hs_norm(eye - self.space.project(eye)), tol(1e-9) * max(1.0, np.sqrt(self.n)))
        if _closure_certified(self):
            return
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


# the largest ||u*u - I|| (HS norm) of a rotation that keeps an algebra's pattern
_UNITARY_DEFECT = tol(1e-12)


def _unitary_defect(u):
    """||u*u - I||, and 0 for the identity, written None."""
    return 0.0 if u is None else hs_norm(dagger(u) @ u - np.eye(len(u)))


def _pattern_coordinates(alg):
    """A patterned algebra's rotated basis y_a = u* x_a u, split at the mask.

    Returns the entries of each y_a on the mask, as a (dim, mask.sum())
    array in row-major order of the mask, the HS norm of each y_a off the
    mask, and u's unitarity defect.  Entry (a, s) is the conjugate of
    <f_s, x_a> for the rotated matrix unit f_s = u E_s u*, whatever u is.
    One rotation, O(dim n^3); not kept, so an algebra holds no second copy
    of its basis.
    """
    u, mask = alg.pattern
    rotated = alg.space.tensor if u is None else dagger(u) @ alg.space.tensor @ u
    flat = rotated.reshape(alg.dim, -1)
    keep = mask.ravel()
    return flat[:, keep], hs_norms(flat[:, ~keep]), _unitary_defect(u)


def _closure_threshold(dim, defect):
    """The largest off-mask residual of a basis element that _closure_certified
    accepts, for an algebra of dimension dim rotated by a u with ||u*u - I|| = defect."""
    return tol(1e-9) / (3.0 + np.sqrt(dim)) - 3.0 * defect


def _closure_certified(alg):
    """True when alg's pattern shows every basis product within tol(1e-9) of the span.

    One rotation of the basis, O(dim n^3), and no product.  Let r_a be the
    HS norm of y_a = u* x_a u off the mask, eps = max r_a, eta = ||u*u - I||,
    v the unitary polar factor of u and P = v B v*, B the matrices on the
    mask: P is product-closed, as the mask is, and has dimension mask.sum().
    Write x_a = p_a + e_a, p_a the projection of x_a onto P.  Since
    u* x u = h (v* x v) h with h = (u*u)^(1/2) and ||h - I|| <= eta, ||e_a||,
    the off-mask norm of v* x_a v, is at most e = eps + 3 eta (eta <= 1).
    - p_a p_b lies in P with norm at most 1.  A unit element sum c_a x_a of
      the span lies within (sum ||e_a||^2)^(1/2) <= sqrt(dim) e of P, and
      when dim = mask.sum() the gap between the span and P is the same both
      ways, so p_a p_b lies within sqrt(dim) e of the span.
    - x_a x_b - p_a p_b = p_a e_b + e_a p_b + e_a e_b has norm at most
      2 e + e^2.
    So x_a x_b lies within (2 + sqrt(dim)) e + e^2 <= (3 + sqrt(dim)) e of
    the span (e <= 1), at most tol(1e-9) <= tol(1e-9) max(1, ||x_a x_b||)
    once eps <= tol(1e-9) / (3 + sqrt(dim)) - 3 eta.  The rotation's own
    rounding, O(n) machine epsilons, lies far below that threshold.
    """
    if alg.pattern is None or alg.dim != int(alg.pattern[1].sum()):
        return False
    _, residuals, defect = _pattern_coordinates(alg)
    return bool(np.all(residuals <= _closure_threshold(alg.dim, defect)))


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


def _block_algebra(n, blocks, star):
    """block_diagonal_algebra (star) or block_upper_triangular, tagged with the
    blocks and with its pattern: no rotation and the allowed-entry mask."""
    _check_partition(n, blocks)
    which = np.empty(n, dtype=int)
    for t, blk in enumerate(blocks):
        which[blk] = t
    if star:
        mask = which[:, None] == which[None, :]
        pairs = [(i, j) for blk in blocks for i in blk for j in blk]
    else:
        mask = which[:, None] <= which[None, :]
        pairs = zip(*np.nonzero(mask))
    mask.flags.writeable = False
    space = orthonormalize([_unit_matrix(n, i, j) for i, j in pairs])
    alg = StarAlgebra(space, check=False) if star else Subalgebra(space, check=False)
    alg.blocks = [list(blk) for blk in blocks]
    alg.pattern = (None, mask)
    alg.validate()
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
    """The algebra u S u*; same flavor as the input, block tags dropped.

    A pattern (w, mask) of S becomes (u w, mask) when u w is unitary within
    _UNITARY_DEFECT; for any other u the result has no pattern, and its
    closure is checked pair by pair.
    """
    rotated = u @ alg.space.tensor @ dagger(u)
    rotated.flags.writeable = False
    result = type(alg)(OperatorSubspace(alg.n, rotated.reshape(alg.dim, -1)), check=False)
    if alg.pattern is not None:
        w, mask = alg.pattern
        composed = u if w is None else u @ w
        if _unitary_defect(composed) <= _UNITARY_DEFECT:
            result.pattern = (composed, mask)
    result.validate()
    return result


def corner_algebra(alg, corner):
    """The *-algebra v* S v on a Corner's isometry v (n x r): from_spanning of
    the compressed basis, with its pattern carried over.

    For S patterned (u, mask), v* x v = w* y w with w = u* v and y = u* x u
    on the mask.  When vv* commutes with S, as a support that commutes with
    a block D does, w is zero off r of its rows K and unitary on them, so
    v* x v = q* y_KK q with q = w[K]: the pattern becomes (q*, mask on K x K),
    a mask as product-closed as the whole one, when q* is unitary within
    _UNITARY_DEFECT.  Otherwise the result has no pattern.  Either way
    validate() decides, as for from_spanning.
    """
    result = StarAlgebra(orthonormalize(corner.compress(alg.space.tensor)), check=False)
    if alg.pattern is not None:
        u, mask = alg.pattern
        w = corner.v if u is None else dagger(u) @ corner.v
        keep = hs_norms(w) ** 2 > 0.5
        if keep.sum() == corner.rank:
            q = dagger(w[keep])
            if _unitary_defect(q) <= _UNITARY_DEFECT:
                sub = mask[np.ix_(keep, keep)]
                sub.flags.writeable = False
                result.pattern = (q, sub)
    result.validate()
    return result
