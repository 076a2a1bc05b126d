"""Unital subalgebras of M_n held as orthonormal spanning sets.

A Subalgebra is product-closed and contains the identity; a StarAlgebra
is additionally adjoint-closed.  Everything downstream works with the
orthonormal basis of the span.  The *-algebra generated by a set S is the
bicommutant of S and its adjoints, two commutant solves; an algebra that
need not be adjoint-closed is generated by closure passes, which form the
(dim)^2 basis products until the dimension stops growing.  A commutant is
a kernel on the coordinates of the enclosing algebra, restricted one batch
of generators at a time: first two seeded generic combinations of the
set, which almost always generate the algebra it generates, then, only if
the result fails its commutation certificate against the whole set, the
set's own elements a bounded chunk at a time.

An algebra's basis rows are read-only, and an algebra keeps a store of the
data that depends on it alone (Subalgebra.derived): its commutant within
each enclosing algebra, its sampled projections per cap
(states.sample_projections), and for a patterned algebra the two numbers
its certificates read off the rotated basis (_off_mask), its mask's block
classes (_mask_classes) and its groups of equal mask rows (_mask_rows).
Each is computed on first request and then read back, so a D that several
states are probed on is solved once.  What depends on a functional is kept
by the functional (states.PositiveFunctional.derived), not here.

The block constructions and full_matrix_algebra take as basis the units
u E_ij u* on an allowed-entries mask, in row-major order (for u None, in
coordinates, the identity rows of M_n the mask selects), with no SVD:
_unit_space declares them on the space (OperatorSubspace.declared) as the
pattern (u, mask) the algebra takes, u B u* for B the matrices on the
mask, whose rows are its unit frame (_unit_frame).  No row is written
here.  linalg writes them when they are first read: a rotated algebra's
at its validation, whose identity check reads them, a coordinate
algebra's at the first product with its basis.  M_n's readers take its
entries by index on the block pipelines and, at n >= 5, the existence
diagnosis, so with two or more blocks those never write M_n's rows.
unitary_conjugate_algebra composes its rotation into the declaration,
and corner_algebra carries the pattern to the corner cut by a projection
that commutes with the algebra.  A patterned algebra's product closure is
certified from its rotated basis, without forming the (dim)^2 basis
products (Subalgebra.validate), with its adjoint closure when the mask is
symmetric (StarAlgebra.validate), and a character on it is checked from
its defects on the rotated matrix units, its kernel read off the masks.
The same rotation certifies, with no SVD or null-space solve, the subspace
facts of an inclusion D <= A <= M_n: A + A* = M_n
(check_ss_density), A intersect A* = D (diagonal_part_check), and the
commutant within M_n of an algebra whose mask is an equivalence relation,
spanned by u p_c u* over the mask's classes (commutant).  Each bound is
derived where it is checked; a certificate that does not pass gives no
verdict, and the SVD, null-space or commutant solve decides.
"""

import functools

import numpy as np

from .config import tol
from .errors import BadPartition, DimensionMismatch, EmptyInput, InvariantViolation, check
from .linalg import (
    DerivedStore,
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
    read_only,
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
    """space itself when it is declared, as its rows are written read-only, or when
    linalg.read_only keeps its rows; else a space over their read-only copy, so that no
    caller's array is shared."""
    rows = None if space.declared is not None else read_only(space.flat)
    return space if rows is None or rows is space.flat else OperatorSubspace(space.ambient_dim, rows)


class Subalgebra(DerivedStore):
    """Unital, product-closed subspace of M_n, on read-only basis rows. Not necessarily adjoint-closed.

    pattern is None or (u, mask): the span should be u B u* with B the
    matrices supported on the boolean (n, n) mask, a product-closed pattern,
    and u None for the identity.  It is the space's declaration, when the
    rows are declared units (_unit_space), and a declared space is kept as
    it is, its rows written by linalg on first read; only on undeclared rows
    is it set by hand, before the algebra is validated (corner_algebra's SVD
    route, unitary_conjugate_algebra's product route).  validate() then
    certifies product closure from the rotated basis; see there.
    """

    star_closed = False

    def __init__(self, space, check=True):
        self.space = _read_only(space)
        self.n = space.ambient_dim
        self.blocks = None
        self.pattern = self.space.declared
        self._derived = {}
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
        """Subalgebra.validate, then adjoint closure: every basis adjoint within tol(1e-9)
        of the span.  A pattern whose mask is symmetric certifies it with no residual.

        With e, P = v B v* and delta = sqrt(dim) e as in _closure_certified
        and _mask_gap, x_a = p_a + e_a with p_a in P and ||e_a|| <= e.  A
        symmetric mask gives P* = P, so p_a* lies in P, with norm at most
        1 + e, and within delta (1 + e) of the span.  So x_a* lies within
        e (1 + sqrt(dim) (1 + e)) <= e (2 + sqrt(dim)) of the span, below
        tol(1e-9) by the factor (2 + sqrt(dim)) / (3 + sqrt(dim)) once the
        closure certificate has passed, with the rest left for rounding.
        """
        super().validate()
        mask = None if self.pattern is None else self.pattern[1]
        if mask is not None and np.array_equal(mask, mask.T) and _closure_certified(self):
            return
        check(InvariantViolation, "adjoint closure: a basis adjoint leaves the span (defect {:.3e})",
              _adjoint_defects(self.space), tol(1e-9))


# the largest ||u*u - I|| (HS norm) of a rotation that keeps an algebra's pattern
_UNITARY_DEFECT = tol(1e-12)


def _unitary_defect(u):
    """||u*u - I||, and 0 for the identity, written None."""
    return 0.0 if u is None else hs_norm(dagger(u) @ u - np.eye(len(u)))


def _coordinate_mask(alg):
    """The mask of an algebra whose rows are declared coordinate units E_s (OperatorSubspace.declared
    with u None), else None: rows that are read by index, with no rotation and no product."""
    declared = alg.space.declared
    return None if declared is None or declared[0] is not None else declared[1]


def _pattern_coordinates(alg):
    """A patterned algebra's rotated basis y_a = u* x_a u, split at the mask.

    Returns the entries of each y_a on the mask, as a (dim, mask.sum())
    array in row-major order of the mask, the HS norm of each y_a off the
    mask, and u's unitarity defect.  Entry (a, s) is the conjugate of
    <f_s, x_a> for the rotated matrix unit f_s = u E_s u*, whatever u is.
    One rotation, O(dim n^3); not kept, so an algebra holds no second copy
    of its basis.  When the rows are declared coordinate units
    (OperatorSubspace.declared, u None), the coordinates are the m x m
    identity and every off-mask norm is 0: None stands for the coordinates
    then, and nothing is copied.
    """
    if _coordinate_mask(alg) is not None:
        return None, np.zeros(alg.dim), 0.0
    u, mask = alg.pattern
    rotated = alg.space.tensor if u is None else dagger(u) @ alg.space.tensor @ u
    flat = rotated.reshape(alg.dim, -1)
    keep = mask.ravel()
    return flat[:, keep], hs_norms(flat[:, ~keep]), _unitary_defect(u)


def _off_mask(alg):
    """(eps, eta) for a patterned algebra with dim = mask.sum(), else None: the
    largest HS norm of a rotated basis element y_a = u* x_a u off the mask, or
    a bound on it, and eta = ||u*u - I||.  Kept in the algebra's derived
    store; a pattern is set before the algebra is first validated.

    Declared units (OperatorSubspace.declared) are read with no rotation:
    eps is 0 in coordinates.  A rotated row is fl(f_s), f_s = u[:, i] (x) conj(u[:, j]),
    one complex product per entry (linalg._rotated_units), which rounds within
    sqrt(5) 2^-53 of its value (Brent, Percival and Zimmermann 2007; 2 2^-53
    with a fused multiply-add).  As ||u[:, i]||^2 = (u*u)_ii <= 1 + eta, the
    row lies within sqrt(5) 2^-53 (1 + eta), about 2.5e-16, of f_s: a
    rounding term in every frame reader, which the frame leaves out
    (_unit_frame).  u* f_s u = h E_s h, h = u*u, lies within eta (2 + eta)
    of E_s, which is on the mask, and ||u||^2 <= 1 + eta, so
        eps <= eta (2 + eta) + (1 + eta)^2 sqrt(5) 2^-53,
    which is taken as eps.  Other rows are rotated by u*, a bounded chunk at
    a time, so no rotated copy of the basis is held, and eps is measured.
    """
    if alg.pattern is None or alg.dim != int(alg.pattern[1].sum()):
        return None

    def compute():
        u, mask = alg.pattern
        eta = _unitary_defect(u)
        if alg.space.declared is not None:
            return (0.0 if u is None else eta * (2.0 + eta) + (1.0 + eta) ** 2 * np.sqrt(5.0) * 2.0**-53), eta
        off, basis, eps = ~mask.ravel(), alg.space.tensor, 0.0
        # per row: its rotation and the rotation's first product
        for part in chunk_slices(alg.dim, 2 * alg.n**2):
            rotated = basis[part] if u is None else dagger(u) @ basis[part] @ u
            eps = max(eps, float(hs_norms(rotated.reshape(len(rotated), -1)[:, off]).max(initial=0.0)))
        return eps, eta

    return alg.derived("off mask", compute)


def _unit_frame(alg):
    """(u, rows, cols, eta) when an algebra's rows x_s are declared as the units f_s = u E_s u* of its
    pattern (OperatorSubspace.declared), s = (rows[s], cols[s]) in the mask's row-major order, and
    eta = ||u*u - I||; None for any other rows, which take the readers' exact routes.  A reader bounds
    what the frame certifies from eta alone: each row's distance from its f_s is rounding (_off_mask)."""
    if alg.space.declared is None:
        return None
    u, mask = alg.space.declared
    rows, cols = np.nonzero(mask)
    return u, rows, cols, _off_mask(alg)[1]


def _closure_threshold(dim, defect):
    """The largest off-mask residual of a basis element that _closure_certified
    accepts, for an algebra of dimension dim rotated by a u with ||u*u - I|| = defect."""
    return tol(1e-9) / (3.0 + np.sqrt(dim)) - 3.0 * defect


def _closure_certified(alg):
    """True when alg's pattern shows every basis product within tol(1e-9) of the span.

    Two numbers kept by _off_mask, from one rotation of the basis or, on
    declared units, from u alone, and no product.  Let r_a be the HS norm of
    y_a = u* x_a u off the mask, eps >= max r_a, eta = ||u*u - I||,
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
    off = _off_mask(alg)
    return off is not None and bool(off[0] <= _closure_threshold(alg.dim, off[1]))


def _mask_gap(alg):
    """delta = sqrt(dim) e for a patterned algebra with dim = mask.sum() and
    ||u*u - I|| <= _UNITARY_DEFECT, the most a rotation keeps a pattern with; else inf.

    With eps, eta, e = eps + 3 eta and P = v B v* as in _closure_certified,
    every unit element of the span lies within delta of P; the two have one
    dimension, so the gap ||Q - Q_P|| between their orthogonal projections
    is at most delta, the same both ways.
    """
    off = _off_mask(alg)
    if off is None or not off[1] <= _UNITARY_DEFECT:
        return np.inf
    return np.sqrt(alg.dim) * (off[0] + 3.0 * off[1])


def _mask_classes(alg):
    """The index classes of a pattern whose mask is an equivalence relation, that is blocks
    without multiplicity, in the order of their first indices; None for any other algebra.
    Kept in the algebra's derived store; a pattern is set before the algebra is first validated."""
    if alg.pattern is None:
        return None

    def compute():
        mask = alg.pattern[1]
        labels = mask.argmax(axis=1)
        if not np.array_equal(mask, labels[:, None] == labels[None, :]):
            return None
        # each class is labelled by its first index, which labels itself
        return [np.flatnonzero(labels == c) for c in np.flatnonzero(labels == np.arange(alg.n))]

    return alg.derived("mask classes", compute)


def _mask_rows(alg):
    """The index groups of a patterned algebra's equal mask rows, in order of their first indices.
    Kept in the algebra's derived store; a pattern is set before the algebra is first validated."""

    def compute():
        groups = {}
        for i, row in enumerate(alg.pattern[1]):
            groups.setdefault(row.tobytes(), []).append(i)
        return [np.array(rows) for rows in groups.values()]

    return alg.derived("mask rows", compute)


def _same_rotation(a, b):
    """True when both algebras carry a pattern, with one u: both None or equal arrays."""
    if a.pattern is None or b.pattern is None:
        return False
    u, w = a.pattern[0], b.pattern[0]
    return u is w or (u is not None and w is not None and np.array_equal(u, w))


def _sum_certified(a):
    """True when A's mask shows A + A* = M_n, which check_ss_density's SVD would find.

    Let mask_A cover every entry together with its transpose, and let
    delta = _mask_gap(A).  The adjoint is an HS isometry, so A* lies within
    delta of P* = v B^T v* as A does of P.  P + P* holds every rotated matrix
    unit v E_ij v*, an orthonormal basis of M_n, so Q_P + Q_P* >= I.  The
    stacked orthonormal rows of A and A* have Gram operator Q_A + Q_A*, whose
    least eigenvalue is then at least 1 - 2 delta (Weyl), so their smallest
    singular value is at least 1/2 once delta <= 3/8: far above the SVD's
    cutoff, tol(1e-9) times the largest row norm (about 1), and its rounding,
    O(n^2) machine epsilons.
    """
    if a.pattern is None:
        return False
    mask = a.pattern[1]
    return bool(np.all(mask | mask.T) and _mask_gap(a) <= 0.375)


def _inclusion_gap(a, d):
    """gamma with every element x of D within gamma ||x|| of A, read off the masks:
    _mask_gap(D) + _mask_gap(A) when the two carry one u and D's mask lies inside A's, else inf.

    With v the unitary polar factor of u, P_D = v B_D v* lies inside
    P_A = v B_A v*, as B_D does inside B_A.  x lies within _mask_gap(D) ||x||
    of its projection p onto P_D, and p, in P_A with ||p|| <= ||x||, within
    _mask_gap(A) ||p|| of A: the gap between A and P_A is the same both ways,
    as they have one dimension.  So the residual of x against A is at most
    gamma ||x||, which DCharacter.validate reads in place of D's residuals
    against A.
    """
    if not _same_rotation(a, d) or np.any(d.pattern[1] & ~a.pattern[1]):
        return np.inf
    return _mask_gap(d) + _mask_gap(a)


def _intersection_certified(a, d, phi):
    """True when the masks of A and D show what diagonal_part_check's null space
    would: A intersect A* spans D, and phi, when given, fixes it within tol(1e-8).

    A and D carry one u and mask_A & mask_A^T = mask_D.  With P and P* as in
    _sum_certified, P intersect P* is P_D = v B_D v*, and the rest of P,
    spanned by the units v E_ij v* with (i, j) on mask_A alone, is orthogonal
    to P*.  So (I - Q_P*) Q_P has singular values 1 (dim A - dim D times) and
    0.  With delta = _mask_gap(A), (I - Q_A*) Q_A lies within 2 delta of it,
    so the residuals of A's rows against A*, whose null space is the
    intersection, have dim A - dim D singular values at least 1 - 2 delta and
    dim D at most 2 delta: below the rank cutoff tol(1e-9) once
    delta <= tol(1e-9) / 4, with half the cutoff left for rounding.
    - A unit null vector w, in A, has ||(I - Q_A*) w|| <= 2 delta, so
      ||(I - Q_P*) w|| <= 3 delta.  Its projection p onto P lies within delta
      of w and splits as p_D + p', p_D in P_D and ||p'|| = ||(I - Q_P*) p||
      <= 4 delta.  So w lies within gamma = 5 delta + _mask_gap(D) of D.
    - The intersection and D have one dimension, so D lies within gamma of
      it too, and same_subspace holds once gamma <= tol(1e-8) / 2.
    - Phi moves such a w by at most F + (kappa + 1) gamma, with F the HS norm
      of Phi - id over D's orthonormal rows (the character keeps it row by
      row, DCharacter.fix, read here when D is phi's range) and kappa the
      map's Frobenius norm; the fix check holds once that is at most tol(1e-8) / 2.
    The halves left over absorb the dense route's rounding, O(n^2) machine
    epsilons.
    """
    if not _same_rotation(a, d):
        return False
    mask, mask_d = a.pattern[1], d.pattern[1]
    if not np.array_equal(mask & mask.T, mask_d):
        return False
    delta = _mask_gap(a)
    gamma = 5.0 * delta + _mask_gap(d)
    if not (delta <= tol(1e-9) / 4 and gamma <= tol(1e-8) / 2):
        return False
    if phi is None:
        return True
    # F as the character keeps it, row by row, when D is its range
    moved = hs_norm(phi.fix if phi.range_alg is d else phi._moved(d.space))
    return bool(moved + (phi.norm() + 1.0) * gamma <= tol(1e-8) / 2)


def from_spanning(mats, star=True):
    space = orthonormalize(mats)
    return StarAlgebra(space) if star else Subalgebra(space)


def _check_size(n):
    if n < 1:
        raise EmptyInput(f"an algebra on M_n needs n >= 1, got n = {n}")


def full_matrix_algebra(n):
    """M_n on its identity rows, declared on the all-true mask (_unit_space): readers that test
    linalg._identity_rows take its entries by index, and its rows are written only when another reads them."""
    _check_size(n)
    return StarAlgebra(_unit_space(np.ones((n, n), dtype=bool)), check=False)


def scalar_algebra(n):
    return from_spanning([np.eye(n)])


def diagonal_algebra(n):
    return from_spanning([np.diag(np.eye(n)[k]) for k in range(n)])


def _check_partition(n, blocks):
    _check_size(n)
    seen = [i for blk in blocks for i in blk]
    integral = all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in seen)
    if not integral or sorted(seen) != list(range(n)) or any(len(blk) == 0 for blk in blocks):
        raise BadPartition(f"partition: blocks must partition range({n}), got {blocks}")


def block_diagonal_algebra(n, blocks):
    """*-algebra of matrices supported on the diagonal blocks of the given index partition."""
    return _block_algebra(n, blocks, star=True)


def block_upper_triangular(n, blocks):
    """Algebra of matrices with E_ij allowed iff block(i) comes at or before block(j)."""
    return _block_algebra(n, blocks, star=False)


def _block_algebra(n, blocks, star, u=None):
    """block_diagonal_algebra (star) or block_upper_triangular, rotated by u, on the rows declared on
    the allowed-entry mask (_unit_space), and validated; tagged with the blocks in coordinates (u None), where a
    one-block partition gives all of M_n's identity rows.  u is checked as unitary_conjugate_algebra does."""
    _check_partition(n, blocks)
    check(InvariantViolation, "rotation: u is not unitary (||u*u - I|| = {:.3e})", _unitary_defect(u), tol(1e-9))
    which = np.empty(n, dtype=int)
    for t, blk in enumerate(blocks):
        which[blk] = t
    mask = which[:, None] == which[None, :] if star else which[:, None] <= which[None, :]
    alg = (StarAlgebra if star else Subalgebra)(_unit_space(mask, u), check=False)
    alg.blocks = [list(blk) for blk in blocks] if u is None else None
    alg.validate()
    return alg


def _unit_space(mask, u=None):
    """The space declared on (u, mask), the one place that hands out a declaration
    (OperatorSubspace.declared): the units u E_ij u* at an (n, n) mask's entries, which an algebra
    over it takes as its pattern.  The mask is set read-only, as the rows are a function of it.
    Nothing is written here; linalg._unit_rows writes the rows when they are first read, with no SVD."""
    mask.flags.writeable = False
    return OperatorSubspace(len(mask), declared=(u, mask))


def generate_algebra(generators):
    """Smallest unital algebra containing the generators, by closure passes from the
    identity and the generators, each adding every basis product, until the dimension
    stops growing: a set that is not self-adjoint has no bicommutant form."""
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise EmptyInput("need at least one generator")
    n = len(gens[0])
    space = orthonormalize([np.eye(n, dtype=complex)] + gens)
    for _ in range(n * n):
        b = space.tensor
        grown = orthonormalize(list(space.basis) + list(pair_products(b, b).reshape(-1, n, n)))
        if grown.size == space.size:
            break
        space = grown
    return Subalgebra(space)


def generate_star_algebra(generators):
    """Smallest unital *-algebra containing the generators: S'', S the generators and
    their adjoints, by von Neumann's bicommutant theorem.  Two commutant solves and
    StarAlgebra.validate, whose InvariantViolation is raised when it fails."""
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise EmptyInput("need at least one generator")
    result = commutant(commutant(gens + [dagger(g) for g in gens]))
    return result if result.star_closed else StarAlgebra(result.space)


def _generating_set(s):
    """s as a stack (k, n, n): an algebra's or a space's rows as a view, else the matrices, checked."""
    if isinstance(s, (Subalgebra, OperatorSubspace)):
        return (s.space if isinstance(s, Subalgebra) else s).tensor
    gens = [as_matrix(m) for m in s]
    sizes = sorted({len(g) for g in gens})
    if len(sizes) > 1:
        raise DimensionMismatch(f"the set mixes matrix sizes {sizes}")
    return np.array(gens)


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

    An algebra whose pattern's mask is an equivalence relation, inside
    within = None or all of M_n, has its commutant read off the mask
    (_pattern_commutant) when that passes, with no solve.

    For an algebra s the result is kept in s's derived store, one per
    within (None or the within object, whose basis a solved result's rows
    are built from), and later calls return that same object.  Both bases are
    read-only, so the kept result cannot go stale.
    """
    # an algebra's rows are read only if its mask does not give the commutant
    stack = None if isinstance(s, Subalgebra) else _generating_set(s)
    if (s.dim if stack is None else len(stack)) == 0:
        raise EmptyInput("commutant of an empty set")
    n = s.n if stack is None else stack.shape[-1]
    if within is not None and within.n != n:
        raise DimensionMismatch(f"set lives in M_{n}, within in M_{within.n}")
    if stack is None:
        return s.derived(("commutant", within), lambda: _algebra_commutant(s, within))
    return _solve_commutant(stack, within)


def _algebra_commutant(alg, within):
    """commutant of an algebra past its argument checks: from the mask, else solved on a view of its rows."""
    result = _pattern_commutant(alg, within)
    return _solve_commutant(alg.space.tensor, within) if result is None else result


def _bracket_threshold(stack):
    """null_space_rows' cutoff on the full bracket system of a stack, whose norm is at most 2 ||stack||."""
    return tol(1e-9) * max(1.0, 2.0 * hs_norm(stack))


def _pattern_commutant(alg, within):
    """alg' inside within = None or M_n, read off a pattern whose mask is an
    equivalence relation; None when it does not apply or does not pass.

    Such a mask is that of B = sum_c M_{k_c} over its classes c, without
    multiplicity, and B' is spanned by the class projections p_c.  The rows
    u p_c u* / sqrt(k_c) are kept when they pass _commutes_with against
    alg's basis at the threshold that ends _solve_commutant, so each lies in
    the commutant the solve finds.  Nothing orthogonal to them does:
    - For B itself, summing ||[x, E_ij]||^2 = ||x e_i||^2 + ||e_j^T x||^2
      - 2 Re(x_ii conj(x_jj)) over i ~ j gives sum_b ||[x, b]||^2 =
      sum_c (k_c (||x p_c||^2 + ||p_c x||^2) - 2 |Tr(p_c x)|^2) over an
      orthonormal basis b of B, at least 2 ||x||^2 when x is orthogonal to
      every p_c; so the bracket map has kernel span{p_c} and its least
      singular value on the complement is sqrt(2), for v B v* as well.
    - With e, v and delta = sqrt(dim) e as in _mask_gap, each basis element
      is b_a = q_a + e_a, q_a in v B v* and ||e_a|| <= e.  For a unit x the
      brackets [x, e_a] have norm at most 2 delta in all; the q_a have Gram
      matrix I - (<e_a, e_b>), whose least eigenvalue is at least
      1 - delta^2; and a unit x orthogonal to the rows is within delta of
      orthogonal to the v p_c v* / sqrt(k_c), each within 3 eta <= e of its
      row.  So sum_a ||[x, b_a]||^2 >= (sqrt(2) - 4 delta)^2 >= 1 once
      delta <= 1/16, and some bracket of x is at least 1 / sqrt(dim), far
      above the threshold: no further direction passes the solve's
      certificate, and its later batches end at the exact kernel.
    The rows are orthonormal up to u's defect, at most _UNITARY_DEFECT, and
    exactly so for u None.

    When alg's rows are its pattern's units (_unit_frame), the brackets are
    bounded with no product.  [p_c, E_ij] = 0 for i ~ j, so with h = u*u,
    [u p_c u*, u E_ij u*] = u (p_c (h - I) E_ij - E_ij (h - I) p_c) u* has
    norm at most 2 eta (1 + eta): every bracket is at most
    2 eta (1 + eta) / sqrt(k_c), and _commutes_with runs only when that
    exceeds its threshold.  Each row's distance from its unit (_off_mask)
    and its own rounding, O(n) machine epsilons, lie far below it.
    """
    if within is not None and within.dim != alg.n**2:
        return None
    classes = _mask_classes(alg)
    if classes is None or not _mask_gap(alg) <= 1.0 / 16:
        return None
    u = np.eye(alg.n) if alg.pattern[0] is None else alg.pattern[0]
    blocks = [u[:, c] for c in classes]
    flat = np.stack([(w @ dagger(w)).ravel() / np.sqrt(w.shape[1]) for w in blocks])
    stack = alg.space.tensor
    threshold = _bracket_threshold(stack)
    frame = _unit_frame(alg)
    brackets = np.inf if frame is None else 2 * frame[3] * (1 + frame[3]) / np.sqrt(min(map(len, classes)))
    if not (brackets <= threshold or _commutes_with(flat, stack, threshold)):
        return None
    flat.flags.writeable = False
    return StarAlgebra(OperatorSubspace(alg.n, flat))


def _solve_commutant(stack, within):
    """commutant past its argument checks, for a stacked set (k, n, n)."""
    n = stack.shape[-1]
    if within is None:
        within = full_matrix_algebra(n)
    if len(stack) <= 2:
        flat = _restrict(within.space.flat, stack)
    else:
        flat = _restrict(within.space.flat, _generic_pair(stack))
        threshold = _bracket_threshold(stack)
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
    """True iff span(A u A*) has the same dimension as M (_sum_dimension)."""
    return _sum_dimension(a) == m.dim


def _sum_dimension(a):
    """dim span(A u A*): n^2 when _sum_certified passes, else from one SVD of the stacked rows."""
    return a.n**2 if _sum_certified(a) else subspace_sum(a.space, _adjoint_space(a.space)).size


def diagonal_part_check(a, d, phi=None):
    """True iff A intersect A* has exactly the span of D.

    When the character map phi is supplied it must also fix that
    intersection pointwise (for a genuine character this is automatic).
    True when the masks certify it (_intersection_certified); otherwise the
    intersection is solved as a null space and compared with D.
    """
    if _intersection_certified(a, d, phi):
        return True
    inter = subspace_intersection(a.space, _adjoint_space(a.space))
    verdict = same_subspace(inter, d.space)
    if phi is not None and verdict:
        return bool(np.all(phi._moved(inter) <= tol(1e-8)))
    return verdict


def unitary_conjugate_algebra(alg, u):
    """The algebra u S u*; same flavor as the input, block tags dropped.

    InvariantViolation unless ||u*u - I|| <= 1e-9, as the conjugated basis is
    not orthonormalized again.  A pattern (w, mask) of S becomes (u w, mask)
    when u w is unitary within _UNITARY_DEFECT; otherwise the result has no
    pattern, and its closure is checked pair by pair.  Declared units
    (OperatorSubspace.declared) under a kept pattern stay declared, on u w,
    with nothing written until validate() reads them; other rows take two
    products each.
    """
    check(InvariantViolation, "rotation: u is not unitary (||u*u - I|| = {:.3e})", _unitary_defect(u), tol(1e-9))
    pattern = None
    if alg.pattern is not None:
        w, mask = alg.pattern
        composed = u if w is None else u @ w
        if _unitary_defect(composed) <= _UNITARY_DEFECT:
            pattern = (composed, mask)
    if pattern is not None and alg.space.declared is not None:
        result = type(alg)(_unit_space(mask, composed), check=False)
    else:
        basis, rotated = alg.space.tensor, np.empty(alg.space.tensor.shape, dtype=complex)
        # per row: its first product, so that no second copy of the basis is held
        for part in chunk_slices(alg.dim, alg.n**2):
            np.matmul(u @ basis[part], dagger(u), out=rotated[part])
        rotated.flags.writeable = False
        result = type(alg)(OperatorSubspace(alg.n, rotated.reshape(alg.dim, -1)), check=False)
        result.pattern = pattern
    result.validate()
    return result


def _coordinate_corner(alg, corner):
    """v* S v as the unit rows declared on a sub-mask (_unit_space), unvalidated, when S's rows are declared
    coordinate units (_coordinate_mask) and each column c of the Corner's isometry v is an exact
    coordinate vector e_k(c) at its own row k(c); else None.

    Then v* E_ab v is E_cd when a = k(c) and b = k(d), and 0 when a or b is
    no k(c): the compressed units are the units of M_r on mask[k, k], a
    mask as product-closed as the whole one, each exactly once, and the
    rest vanish.  No SVD, and the columns are declared.
    """
    mask = _coordinate_mask(alg)
    if mask is None:
        return None
    v, r = corner.v, corner.rank
    k = np.argmax(v != 0, axis=0)  # the row of each column's first nonzero entry
    if np.count_nonzero(v) != r or not np.all(v[k, np.arange(r)] == 1.0) or len(set(k.tolist())) != r:
        return None
    return StarAlgebra(_unit_space(mask[np.ix_(k, k)]), check=False)


def corner_algebra(alg, corner):
    """The *-algebra v* S v on a Corner's isometry v (n x r): from_spanning of
    the compressed basis, with its pattern carried over.

    When S's rows are its coordinate pattern's units and v's columns are
    exact coordinate vectors, as for a support of a diagonal density, the
    compressed units are read off the mask, declared unit rows with no SVD
    (_coordinate_corner).  Otherwise, for S patterned (u, mask),
    v* x v = w* y w with w = u* v and y = u* x u on the mask.  When vv*
    commutes with S, as a support that commutes with a block D does, w is
    zero off r of its rows K and unitary on them, so v* x v = q* y_KK q with
    q = w[K]: the pattern becomes (q*, mask on K x K), a mask as
    product-closed as the whole one, when q* is unitary within
    _UNITARY_DEFECT.  Otherwise the result has no pattern.  Either way
    validate() decides, as for from_spanning.
    """
    result = _coordinate_corner(alg, corner)
    if result is not None:
        result.validate()
        return result
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
