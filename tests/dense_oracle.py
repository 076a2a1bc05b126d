"""Dense n^2 x n^2 operators on row-major flattened matrices, kept as the test oracle.

The package checks its maps through their values on a domain basis, and
their module property through mode products on the map's 4-tensor, and
forms none of these; the tests compare those statistics with the formulas
below, which spell the same quantities out with explicit left and right
multiplication, sandwich and complement matrices.  The commutant is here
too, solved in one piece from the brackets with every element of the set,
and so are the centrality probes as they were before they became gemms:
the draw-by-draw projection sampler, the broadcast p d k - k d p
contraction and the einsum central violation.  So are the pairwise product
routes of the closure, adjoint and multiplicative checks, which the package runs
only where no block pattern certifies the result, the multiplicativity
certificate as it was before it read the unit defects (all m^2 products of
the units' images), the rotated units that span ker(Phi) when the masks
give it, formed one at a time, Phi applied to the stack of D's rows and to
that of those units (the character's fix and the kernel's tau, which the
package reads at the units of the frame), the element by
element conjugation of an algebra's basis, the closure passes that
generated *-algebras before generation became the bicommutant, and the
faithfulness test on a *-algebra's Gram matrix.  The subspace facts that
block masks certify are here as the SVD and null-space routes the package
falls back to: A + A* = M, A intersect A* = D and the splitting J + D = A.
The preserving expectation onto a block D, which the package solves in
closed form and checks from its block factors, is here as the Gram route
every target took before: the (dim D)^2 Gram solve, the n^2 x n^2 map and
its dense validation.  The same route is the oracle for the expectation
onto D', which the package keeps as its Gram factor pair.  The pipelines'
matching and projection steps are here as they were before they read A's
structure: the least-squares solve of the stacked constraints, and the
projection of b onto an orthonormalized stack of every x a over A's basis.
The block character, which the package keeps as its block factors, is here
as the dense s K s* of the coordinate pinching it was built as.  The Jensen
suite, which the package runs in batched passes over its draws, is
here as the draw-by-draw loop it was: per draw its own sum over the basis,
membership test, image, eigenvalues, SVD and public geometric_mean calls.
"""

import math

import numpy as np

from ncrep.algebras import StarAlgebra, _adjoint_space, _mask_gap, _pattern_coordinates
from ncrep.config import tol
from ncrep.errors import EmptyInput, InvariantViolation, check
from ncrep.expectations import ConditionalExpectation, _check_preserves, _gram_solve
from ncrep.jensen import JensenReport, JensenSuiteSummary, _require_jensen_setting, geometric_mean
from ncrep.linalg import (
    OperatorSubspace,
    as_matrix,
    chunk_slices,
    constraint_system,
    dagger,
    eigh_hermitian,
    hs_norm,
    hs_norms,
    minimal_norm_solution,
    orthonormalize,
    pair_products,
    pd_tol,
    psd_sqrt,
    same_subspace,
    sandwich_matrix,
    subspace_intersection,
    subspace_sum,
)
from ncrep.representing import DCharacter
from ncrep.states import _faithful_spectrum, _omega_gram


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


def projector_matrix(space):
    """The n^2 x n^2 matrix of the orthogonal projection onto an operator subspace."""
    return space.flat.T @ space.flat.conj()


def perp_projector_matrix(space):
    """Matrix of the orthogonal projection onto the complement of an operator subspace."""
    return np.eye(space.ambient_dim**2) - projector_matrix(space)


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


def gram_faithful_on(omega, algebra):
    """omega(x*x) > 0 for nonzero x in the algebra, decided on the (dim)^2 Gram matrix
    omega(b_a* b_c) of its orthonormal basis by the package's one faithfulness test."""
    gram, _ = _omega_gram(omega, algebra.space.tensor)
    return _faithful_spectrum(np.linalg.eigvalsh(gram))


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


def closure_check(alg):
    """Product closure pair by pair: InvariantViolation unless every basis product
    x_a x_b lies within tol(1e-9) max(1, ||x_a x_b||) of the span."""
    b = alg.space.tensor
    # all basis products, a chunk of left factors at a time; per factor, three
    # (dim, n^2) arrays: the products, their projection and the residual
    for part in chunk_slices(alg.dim, 3 * alg.dim * alg.n**2):
        products = pair_products(b[part], b).reshape(-1, alg.n**2)
        check(InvariantViolation, "product closure: a basis product leaves the span (defect {:.3e})",
              alg.space.residuals(products), tol(1e-9) * np.maximum(1.0, hs_norms(products)))


def star_closure_check(alg):
    """closure_check, then adjoint closure: InvariantViolation unless every basis adjoint lies
    within tol(1e-9) of the span."""
    closure_check(alg)
    check(InvariantViolation, "adjoint closure: a basis adjoint leaves the span (defect {:.3e})",
          alg.space.residuals(_adjoint_space(alg.space).flat), tol(1e-9))


def multiplicative_check(phi):
    """A character's multiplicativity pair by pair on its domain's orthonormal basis:
    InvariantViolation unless ||Phi(x_a x_b) - Phi(x_a) Phi(x_b)|| <= tol(1e-8) max(1, ||x_a x_b||)."""
    k = phi.map_matrix
    n = phi.n
    b = phi.domain.space.tensor
    images = phi.images.reshape(-1, n, n)
    # all products x_a x_b and Phi(x_a) Phi(x_b), a chunk of a's at a time; per a, four
    # (dim A, n^2) arrays: both products, the image of the first and the defect
    for part in chunk_slices(len(b), 4 * len(b) * n * n):
        prods = pair_products(b[part], b).reshape(-1, n * n)
        want = pair_products(images[part], images).reshape(-1, n * n)
        check(InvariantViolation, "multiplicative: Phi(xy) != Phi(x)Phi(y), defect {:.3e}",
              hs_norms(prods @ k.T - want), tol(1e-8) * np.maximum(1.0, hs_norms(prods)))


def unit_products_multiplicative(phi, kappa):
    """The multiplicativity certificate as it was before it read the unit defects: all m^2
    products T_s T_t of Phi's images of the rotated units f_s = u E_s u*, a chunk of left
    factors at a time, against the lookups delta_jk T_il, summed into M; True when
        (1 + eta)^2 (M + m eta kappa (1 + eta)) + (kappa + kappa^2) e (2 + e) <= tol(1e-8),
    with eta and e as in representing._multiplicative_from_defects."""
    a = phi.domain
    if a.pattern is None:
        return False
    coords, residuals, eta = _pattern_coordinates(a)
    n, m = phi.n, int(a.pattern[1].sum())
    e = (1 + eta) * residuals.max(initial=0.0) + eta * (2 + eta)
    allowed = (tol(1e-8) - (kappa + kappa**2) * e * (2 + e)) / (1 + eta) ** 2 - m * eta * kappa * (1 + eta)
    if not allowed > 0:
        return False
    units = (phi.images if coords is None else coords.conj().T @ phi.images).reshape(m, n, n)
    rows, cols = np.nonzero(a.pattern[1])
    where = np.full((n, n), -1)
    where[rows, cols] = np.arange(m)
    right = units.transpose(1, 0, 2).reshape(n, m * n)
    total = 0.0
    for part in chunk_slices(m, 4 * m * n * n):
        s = np.arange(m)[part]
        prods = units[part].reshape(-1, n) @ right
        hit_s, hit_t = np.nonzero(cols[s, None] == rows[None, :])
        prods.reshape(len(s), n, m, n)[hit_s, :, hit_t] -= units[where[rows[s[hit_s]], cols[hit_t]]]
        total += np.vdot(prods, prods).real
    return bool(total <= allowed**2)


def pinching_matrix(n, blocks):
    """Matrix of x -> sum_t p_t x p_t, p_t the diagonal projection onto block t: the 0/1 diagonal
    matrix that keeps entry (i, j) iff i and j share a block."""
    label = np.empty(n, dtype=int)
    for t, blk in enumerate(blocks):
        label[blk] = t
    return np.diag((label[:, None] == label[None, :]).ravel().astype(complex))


def sandwich_block_character(blocks, u, a, d, check=True):
    """The block character on (A, D) as a dense DCharacter, as the package built it before it kept
    its block factors: the n^2 x n^2 matrix s K s* of the coordinate pinching K, with s the matrix of
    x -> u x u* (no sandwich for u None), which the constructor composes with A's projection."""
    k = pinching_matrix(a.n, blocks)
    if u is not None:
        s = sandwich_matrix(u, dagger(u))
        k = (s * k.diagonal()) @ dagger(s)
    return DCharacter(k, a, d, check=check)


def mask_kernel_rows(a, d):
    """The rotated units u E_s u*, s on A's mask but off D's, as flat rows formed one at a time."""
    u, mask = a.pattern
    u = np.eye(a.n) if u is None else u
    units = [np.outer(u[:, i], u[:, j].conj()).ravel() for i, j in zip(*np.nonzero(mask & ~d.pattern[1]))]
    return np.array(units, dtype=complex).reshape(-1, a.n * a.n)


def stack_fix(phi):
    """||Phi(d) - d|| over D's orthonormal rows d, with Phi applied to the stack of the rows."""
    space = phi.range_alg.space
    return hs_norms(phi.apply(space.tensor).reshape(space.size, -1) - space.flat)


def stack_kernel_tau(phi):
    """The HS norm of Phi over the rotated units off D's mask (mask_kernel_rows), Phi applied to their
    stack a chunk at a time, the chunks _mask_kernel took."""
    n = phi.n
    units = mask_kernel_rows(phi.domain, phi.range_alg).reshape(-1, n, n)
    return math.hypot(*(hs_norm(phi.apply(units[part])) for part in chunk_slices(len(units), n * n)))


def elementwise_conjugate(alg, u):
    """The algebra u S u* built from each basis element's conjugate in turn, and checked pair by pair."""
    space = OperatorSubspace(alg.n, [(u @ b @ dagger(u)).ravel() for b in alg.basis])
    return type(alg)(space)


def closure_star_algebra(generators):
    """The smallest unital *-algebra containing the generators, by closure passes:
    seeded with the identity, the generators and their adjoints, then multiplied
    out, all (dim)^2 basis products at once, and orthonormalized until the
    dimension stops growing."""
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise EmptyInput("need at least one generator")
    n = gens[0].shape[0]
    space = orthonormalize([np.eye(n, dtype=complex)] + gens + [dagger(g) for g in gens])
    for _ in range(n * n):
        b = space.tensor
        grown = orthonormalize(list(space.basis) + list(pair_products(b, b).reshape(-1, n, n)))
        if grown.size == space.size:
            break
        space = grown
    return StarAlgebra(space)


def svd_ss_density(a, m):
    """A + A* spans M: one SVD of the stacked rows of A and A*."""
    return subspace_sum(a.space, _adjoint_space(a.space)).size == m.dim


def null_space_diagonal_part(a, d, phi=None):
    """A intersect A* spans D, from the null space of A's residuals against A*, and
    phi, when given, moves no row of that intersection by more than tol(1e-8)."""
    inter = subspace_intersection(a.space, _adjoint_space(a.space))
    if not same_subspace(inter, d.space):
        return False
    return phi is None or bool(np.all(hs_norms(inter.flat @ phi.map_matrix.T - inter.flat) <= tol(1e-8)))


def svd_splitting(phi):
    """J = ker(Phi) and D span A together: one SVD of their stacked rows."""
    return subspace_sum(phi.kernel, phi.range_alg.space).size == phi.domain.dim


def gram_expectation(omega, target, m):
    """The omega-preserving map of M onto the target from its Gram system, kept as its
    n^2 x n^2 matrix and validated densely, then checked to preserve omega."""
    e = ConditionalExpectation(_gram_solve(omega, target.space).matrix(), m, target.space, np.eye(m.n), target)
    _check_preserves(e, omega, omega.restricted_density(m))
    return e


def lstsq_matched_density(constraint_mats, values):
    """Minimal-norm r with Tr(r x) = value for each constraint matrix x, by least squares on
    the stacked constraints, and the residual check of the pipelines' matching step."""
    values = np.asarray(values, dtype=complex)
    system = constraint_system(constraint_mats)
    r = minimal_norm_solution(system, values)
    check(InvariantViolation, "matching: constraints unsatisfied (residual {:.3e})",
          float(np.linalg.norm(system @ r.ravel() - values)), tol(1e-9) * max(1.0, float(np.linalg.norm(values))))
    return r


def svd_projected_factor(a_alg, kernel, a_mat, b_mat, weight=None):
    """c = projection of b onto span{x a : x in A}, from one SVD of the stacked x a w^(1/2) over
    A's basis, then the kernel-orthogonality checks of the pipelines' projection step."""
    n = a_mat.shape[0]
    sqw = psd_sqrt(weight) if weight is not None else np.eye(n, dtype=complex)
    bt = b_mat @ sqw
    ct = orthonormalize(a_alg.space.tensor @ a_mat @ sqw).project(bt)
    scale = max(1.0, hs_norm(bt))
    f = (kernel.tensor @ a_mat @ sqw).reshape(kernel.size, n * n)
    overlaps = np.abs(f.conj() @ np.stack([bt.ravel(), ct.ravel()], axis=1))
    bounds = tol(1e-8) * scale * np.maximum(1.0, hs_norms(f))
    for (b_gap, c_gap), bound in zip(overlaps.tolist(), bounds.tolist()):
        check(InvariantViolation, "kernel orthogonality: b overlaps ker(Phi)·a by {:.3e}", b_gap, bound)
        check(InvariantViolation, "kernel orthogonality: c overlaps ker(Phi)·a by {:.3e}", c_gap, bound)
    if weight is None:
        return ct
    return ct @ eigh_hermitian(weight).apply(lambda v: 1.0 / np.sqrt(v))


def _per_draw_delta_or_zero(omega, a):
    """(Delta(a), False), or (0.0, True) under the limit convention for singular a."""
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= pd_tol(float(svals[0])):
        return 0.0, True
    return geometric_mean(omega, a).value, False


def _per_draw_compare(omega, phi, a):
    """One draw's JensenReport: membership, the mean of a, the degeneracy of Phi(a), its mean."""
    if not phi.domain.contains(a):
        raise InvariantViolation("a must lie in the character's domain")
    delta_a = geometric_mean(omega, a).value
    delta_image, degenerate = _per_draw_delta_or_zero(omega, phi(a))
    inequality_ok = delta_image <= delta_a * (1.0 + tol(1e-7))
    gap = abs(delta_a - delta_image) / delta_a
    equality_ok = None
    if getattr(phi.domain, "blocks", None) is not None and not degenerate:
        equality_ok = gap <= tol(1e-6)
    return JensenReport(delta_a, delta_image, inequality_ok, equality_ok, gap, degenerate)


def jensen_suite_per_draw(omega, phi, psi, trials=100, rng_seed=0):
    """jensen_measure_suite as a loop over its draws, each computed and checked before the next."""
    _require_jensen_setting(omega, phi, psi)
    a_alg = phi.domain
    eye = np.eye(a_alg.n, dtype=complex)
    boundary = max(1, trials // 10) if trials else 0
    streams = np.random.SeedSequence(rng_seed).spawn(trials + boundary)
    ineq = eq_checked = eq_passed = degen_passed = 0
    worst = 0.0
    for t in range(trials + boundary):
        rng = np.random.default_rng(streams[t])
        coeff = rng.standard_normal(a_alg.dim) + 1j * rng.standard_normal(a_alg.dim)
        x = sum(c * mat for c, mat in zip(coeff, a_alg.basis))
        a = x + (1.0 + float(np.linalg.norm(x, 2))) * eye
        if t < trials:
            report = _per_draw_compare(omega, phi, a)
            ineq += bool(report.inequality_ok)
            worst = max(worst, report.relative_gap)
            if report.equality_ok is not None:
                eq_checked += 1
                eq_passed += bool(report.equality_ok)
        else:
            lam = rng.choice(np.linalg.eigvals(phi(a)))
            shifted = a - lam * eye
            d_img, _ = _per_draw_delta_or_zero(omega, phi(shifted))
            d_a, _ = _per_draw_delta_or_zero(omega, shifted)
            degen_passed += bool(d_img <= d_a * (1.0 + tol(1e-7)) + tol(1e-12))
    return JensenSuiteSummary(
        trials=trials,
        inequality_passes=ineq,
        equality_checked=eq_checked,
        equality_passes=eq_passed,
        degenerate_trials=boundary,
        degenerate_passes=degen_passed,
        max_relative_gap=worst,
        ok=ineq == trials and eq_passed == eq_checked and degen_passed == boundary,
    )


def with_mask_gap(a, target, rng):
    """A test input rather than an oracle: a's span with its pattern's rotation moved by
    exp(i eps h), h a random Hermitian matrix, eps chosen so that _mask_gap is target to first
    order in eps; a new, unvalidated object of a's type."""
    u, mask = a.pattern
    u = np.eye(a.n) if u is None else u
    h = rng.standard_normal((a.n, a.n)) + 1j * rng.standard_normal((a.n, a.n))
    w, v = np.linalg.eigh(h + dagger(h))

    def moved(eps):
        alg = type(a)(a.space, check=False)
        alg.pattern = (u @ (v * np.exp(1j * eps * w)) @ dagger(v), mask)
        return alg

    base, probe = _mask_gap(a), 1e-6
    return moved((target - base) * probe / (_mask_gap(moved(probe)) - base))
