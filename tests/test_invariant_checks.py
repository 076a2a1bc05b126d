"""The structured invariant checks against the dense routes they replaced.

The bimodule kernel is compared with the n^2 x n^2 left and right
multiplication matrices of every basis element, the statistics read off a
map's values on its domain basis with the dense multiplication, sandwich
and complement formulas of dense_oracle, the batched products with einsum,
the QR-first null space with a full SVD, the certified commutant with
the bracket stack over every element of the set, the gemm centrality
probes with the loop sampler and the broadcast and einsum contractions,
the block-pattern certificates of closure, adjoint closure and
multiplicativity with the pairwise product routes (multiplicativity also
with the m^2 unit products it replaced), the kernel read off the masks
with the null space of the images, on intact and deliberately broken inputs and
on the corners of a block D, and the mask certificates of A + A* = M,
A intersect A* = D, the splitting J + D = A and D' with the SVD sum and
intersection and the bracket-stack commutant, on intact and broken
instances; the identity domain's pass-through is pinned byte for byte to
the two products it skips; the memory contracts pin the peak of the two
validations at n = 10, of an expectation's validation at n = 16 and of a
commutant at n = 16.
"""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_oracle import (
    bracket_stack_commutant,
    broadcast_local_violation,
    closure_check,
    einsum_central_violation,
    elementwise_conjugate,
    gram_faithful_on,
    left_mult_matrix,
    loop_sample_projections,
    mask_kernel_rows,
    multiplicative_check,
    null_space_diagonal_part,
    perp_projector_matrix,
    pinching_matrix,
    projector_matrix,
    right_mult_matrix,
    sandwich,
    sandwich_block_character,
    star_closure_check,
    svd_splitting,
    svd_ss_density,
    unit_products_multiplicative,
)
from ncrep import algebras, expectations, linalg, representing, states
from ncrep.algebras import (
    StarAlgebra,
    Subalgebra,
    block_diagonal_algebra,
    block_upper_triangular,
    check_ss_density,
    commutant,
    diagonal_algebra,
    diagonal_part_check,
    from_spanning,
    full_matrix_algebra,
    unitary_conjugate_algebra,
)
from ncrep.config import tol
from ncrep.errors import InvariantViolation, NcrepError
from ncrep.expectations import (
    ConditionalExpectation,
    _domain_images,
    _modular_gaps,
    _support_gaps,
    preserving_expectation,
    support_ideal_expectation,
)
from ncrep.instances import (
    haar_unitary,
    random_block_instance,
    random_central_density,
    random_density,
    random_partition,
)
from ncrep.linalg import (
    Corner,
    OperatorSubspace,
    bimodule_gaps,
    chunk_slices,
    dagger,
    hs_norm,
    null_space_rows,
    orthonormalize,
    pair_products,
    projection_isometry,
    same_subspace,
    sandwich_matrix,
    subspace_intersection,
)
from ncrep.representing import (
    DCharacter,
    _block_character,
    _extension_gap,
    _multiplicative_from_defects,
    _splitting_certified,
    make_block_character,
)
from ncrep.states import PositiveFunctional, is_D_central, locally_central_check, sample_projections


def dense_side_gaps(k, b, p_dom):
    """||(K S - S K) P|| for S the matrix of x -> dx (row 0) and of x -> xd (row 1), d in b."""
    sides = np.array([[left_mult_matrix(d) for d in b], [right_mult_matrix(d) for d in b]])
    return np.linalg.norm((k @ sides - sides @ k) @ p_dom, axis=(2, 3))


def random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.sampled_from([0.0, 1e-6, 1e-2, 1.0]), st.data())
def test_bimodule_gaps_match_the_dense_sides(n, noise, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inst = random_block_instance(n, rng, conjugate=data.draw(st.booleans()))
    e = preserving_expectation(inst.state, inst.d, inst.m)
    b = inst.d.space.tensor
    # the expectation's case (domain M) and the character's (domain A), valid or perturbed,
    # composed with the domain projection P as the constructors store them
    for k, domain in ((e.map_matrix, inst.m), (inst.phi.map_matrix, inst.a)):
        p = projector_matrix(domain.space)
        k = (k + noise * random_complex(k.shape, rng)) @ p
        left, right = bimodule_gaps(k, b)
        assert left.shape == right.shape == (len(b),)
        want = dense_side_gaps(k, b, p)
        bound = 1e-12 * max(1.0, np.linalg.norm(k))
        assert np.abs(left - want[0]).max() <= bound
        assert np.abs(right - want[1]).max() <= bound


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.data())
def test_bimodule_gaps_bound_the_gaps_on_any_domain(n, data):
    # a random subspace, not closed under multiplication by D, and a map not composed with its projection
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    b = random_block_instance(n, rng, conjugate=True).d.space.tensor
    domain = orthonormalize(random_complex((int(rng.integers(1, n * n)), n, n), rng))
    k = random_complex((n * n, n * n), rng)
    gaps = bimodule_gaps(k, b)
    bound = 1e-12 * max(1.0, np.linalg.norm(k))
    assert np.all(gaps >= dense_side_gaps(k, b, projector_matrix(domain)) - bound)
    assert np.abs(gaps - dense_side_gaps(k, b, np.eye(n * n))).max() <= bound


def test_bimodule_gaps_across_chunks(monkeypatch):
    # D with blocks (5, 1) in M_6: 26 basis elements.  The character's map has Schmidt rank 2
    # and meets the basis in one chunk; the noisy identity has full Schmidt rank, and its
    # 72 factors meet the basis in more than one
    rng = np.random.default_rng(11)
    a, d, phi = make_block_character(6, [[0, 1, 2, 3, 4], [5]])
    b = d.space.tensor
    slices = []

    def recording(count, item_size):
        slices.append(chunk_slices(count, item_size))
        return slices[-1]

    monkeypatch.setattr(linalg, "chunk_slices", recording)
    eye = np.eye(36)
    maps = ((phi.map_matrix, projector_matrix(a.space), 1), (eye + 1e-3 * random_complex((36, 36), rng), eye, 5))
    for k, p, chunks in maps:
        del slices[:]
        gaps = bimodule_gaps(k, b)
        assert [len(parts) for parts in slices] == [chunks]
        want = dense_side_gaps(k, b, p)
        assert np.abs(gaps - want).max() <= 1e-12 * max(1.0, np.linalg.norm(k))


def schmidt_rank_map(n, rank, rng):
    """The matrix of a map with the given operator-Schmidt rank: its realignment
    R[(a, g), (b, e)] = K(E_ge)[a, b] is a product of (n^2, rank) and (rank, n^2) Gaussians."""
    realigned = random_complex((n * n, rank), rng) @ random_complex((rank, n * n), rng)
    return realigned.reshape(n, n, n, n).swapaxes(1, 2).reshape(n * n, n * n)


@settings(max_examples=25, deadline=None)
@given(st.integers(6, 8), st.sampled_from([0.5, 2.0]), st.data())
def test_bimodule_gaps_of_truncated_factors_bound_the_dense_sides(n, size, data):
    # a map of Schmidt rank below the sketch's width, plus a rank-one perturbation whose
    # singular value is half, resp. twice, the kept factors' floor n^2 eps sigma_max
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    b = random_block_instance(n, rng, conjugate=True).d.space.tensor
    k = schmidt_rank_map(n, data.draw(st.integers(1, 2 * n - 2)), rng)
    sigma_max = np.linalg.norm(k.reshape(n, n, n, n).swapaxes(1, 2).reshape(n * n, n * n), 2)
    bump = schmidt_rank_map(n, 1, rng)
    k = k + size * n * n * np.finfo(float).eps * sigma_max / np.linalg.norm(bump, 2) * bump
    left, _, tail = linalg._schmidt_factors(k.reshape(n, n, n, n), len(b))
    assert left.shape[1] < n * n  # the sketch found the low rank
    gaps = bimodule_gaps(k, b)
    want = dense_side_gaps(k, b, np.eye(n * n))
    rounding = 1e-12 * max(1.0, np.linalg.norm(k))
    assert np.all(gaps >= want - rounding)
    assert np.all(gaps <= want + 4 * tail * np.linalg.norm(b, axis=(1, 2)) + rounding)


def test_broken_maps_raise_what_they_raised_with_the_sketch_and_without():
    # the tau-expectation onto a block-diagonal D1 declared a module map over a rotated D2:
    # unital, idempotent and positive, but not a D2-bimodule map; n = 8 takes the sketch, n = 3 not
    for n, blocks in ((8, [[0, 1, 2], [3, 4, 5], [6, 7]]), (3, [[0, 1], [2]])):
        m = full_matrix_algebra(n)
        d1 = block_diagonal_algebra(n, blocks)
        d2 = unitary_conjugate_algebra(d1, haar_unitary(n, np.random.default_rng(n)))
        e = preserving_expectation(PositiveFunctional.tracial(n), d1, m)
        with pytest.raises(InvariantViolation, match="^bimodule: module property fails by "):
            ConditionalExpectation(e.map_matrix, m, d1.space, np.eye(n), d2)
        # the block character plus 1e-4 x_{0, n-1} I: unital, fixing D and into D, but its
        # module property and its multiplicativity fail, and the latter is checked first
        a, d, phi = make_block_character(n, blocks)
        k = phi.map_matrix.copy()
        k[:, n - 1] += 1e-4 * np.eye(n).ravel()
        with pytest.raises(InvariantViolation, match=r"^multiplicative: Phi\(xy\) != Phi\(x\)Phi\(y\), defect "):
            DCharacter(k, a, d)


def verdict(fn, *args):
    """None when fn(*args) passes, else the class and message of the NcrepError it raises."""
    try:
        fn(*args)
    except NcrepError as err:
        return type(err), str(err)
    return None


def nudged(alg, size, rng):
    """A copy of a patterned algebra, pattern included, whose every basis element x_a
    is moved by u g_a u*, g_a a random matrix of HS norm size off the mask."""
    u, mask = alg.pattern
    u = np.eye(alg.n) if u is None else u
    off = random_complex((alg.dim, alg.n, alg.n), rng) * ~mask
    off *= size / np.linalg.norm(off, axis=(1, 2), keepdims=True)
    moved = type(alg)(OperatorSubspace(alg.n, alg.space.flat + (u @ off @ dagger(u)).reshape(alg.dim, -1)), check=False)
    moved.pattern = alg.pattern
    return moved


def as_factors(k):
    """The map of the n^2 x n^2 matrix k as a SandwichSum sum_s X_s x Y_s^T, from the SVD of its
    realignment R[(a, g), (b, e)] = k[(a, b), (g, e)] = sum_s X_s[a, g] Y_s[b, e]; terms below
    1e-15 of the largest are dropped."""
    n = math.isqrt(len(k))
    w, s, vh = np.linalg.svd(k.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n))
    keep = s > 1e-15 * s[0]
    return linalg.SandwichSum((w[:, keep] * s[keep]).T.reshape(-1, n, n), vh[keep].reshape(-1, n, n).swapaxes(1, 2))


def null_space_kernel(phi):
    """J = ker(Phi) as the null space of Phi's images on its domain's orthonormal basis."""
    return OperatorSubspace(phi.n, null_space_rows(phi.images.T) @ phi.domain.space.flat)


def pairwise_verdict(phi):
    """validate's class and message with J from the null space and multiplicativity pair by pair."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(representing, "_mask_kernel", lambda phi: None)
        patch.setattr(representing, "_multiplicative_from_defects", lambda phi, kappa: False)
        return verdict(DCharacter, phi.map_matrix, phi.domain, phi.range_alg)


def multiplicative_threshold(kappa, eta):
    """The off-mask size eps of the domain's rows at which _multiplicative_from_defects' allowance
    reaches 0: (kappa + kappa^2) e (2 + e) = tol(1e-8), e = (1 + eta) eps + eta (2 + eta)."""
    e = np.sqrt(1.0 + tol(1e-8) / (kappa + kappa**2)) - 1.0
    return (e - eta * (2 + eta)) / (1 + eta)


def kernel_threshold(dim, eta):
    """The off-mask size eps of A's rows at which _mask_kernel's lambda = sqrt(dim) (eps + 3 eta)
    + 3 eta reaches _KERNEL_GAP."""
    return (representing._KERNEL_GAP - 3 * eta) / np.sqrt(dim) - 3 * eta


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.booleans(), st.sampled_from(["random", "one", "singletons"]), st.data())
def test_pattern_certificates_agree_with_the_pairwise_routes(n, star, rotated, partition, data):
    # a block diagonal D with the identity character, or a block upper triangular A with the
    # block compression, in coordinates or rotated, over a random, a one-block or an all-singleton
    # partition.  Each certificate is compared with the route it replaces: the defect bound of
    # multiplicativity with the pairwise check and with the m^2 unit products, J read off the masks
    # with the null space of the images, and validate with both certificates switched off.  The
    # cases: the rows of A nudged off the pattern at half and twice the closure, multiplicativity
    # and kernel thresholds (for D also its adjoint closure, which the closure certificate covers),
    # u off by more than _UNITARY_DEFECT, the map plus 1e-4 x_{0, n-1} I,
    # the map plus 1e-4 <x, f> I for a unit f of J (multiplicative on D but not on A) and the
    # transpose map, each kept as its matrix and as factors
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    blocks = {"random": random_partition(n, rng), "one": [list(range(n))], "singletons": [[i] for i in range(n)]}
    a, d, phi = _block_character(n, blocks[partition], haar_unitary(n, rng) if rotated else None)
    if star:
        a, phi = d, DCharacter(np.eye(n * n), d, d)
    kappa = hs_norm(phi.map_matrix)
    assert a.pattern is not None and algebras._closure_certified(a)
    assert _multiplicative_from_defects(phi, kappa) and unit_products_multiplicative(phi, kappa)
    assert phi.kernel_tau is not None and phi.kernel.flat.tobytes() == mask_kernel_rows(a, d).tobytes()
    broken = phi.map_matrix.copy()
    broken[:, n - 1] += 1e-4 * np.eye(n).ravel()
    transpose = np.eye(n * n).reshape(n, n, n, n).swapaxes(0, 1).reshape(n * n, n * n)
    cases = [(a, d, phi.map_matrix), (a, d, broken), (a, d, transpose)]
    if phi.kernel.size:
        unit = phi.kernel.flat[int(rng.integers(phi.kernel.size))]
        cases.append((a, d, phi.map_matrix + 1e-4 * np.outer(np.eye(n).ravel(), unit.conj())))
    far = (np.eye(n) if a.pattern[0] is None else a.pattern[0]) * (1.0 + 1e-11)
    assert algebras._unitary_defect(far) > algebras._UNITARY_DEFECT
    cases.append((repatterned(a, (far, a.pattern[1])), repatterned(d, (far, d.pattern[1])), phi.map_matrix))
    assert verdict(cases[-1][1].validate) == verdict(star_closure_check, cases[-1][1])
    if not a.pattern[1].all():  # there are entries off the pattern to move the rows to
        _, _, defect = algebras._pattern_coordinates(a)
        thresholds = [
            (algebras._closure_threshold(a.dim, defect), lambda moved: algebras._closure_certified(moved)),
            (multiplicative_threshold(kappa, defect),
             lambda moved: _multiplicative_from_defects(DCharacter(phi.map_matrix, moved, d, check=False), kappa)),
            (kernel_threshold(a.dim, defect),
             lambda moved: DCharacter(phi.map_matrix, moved, d, check=False).kernel_tau is not None),
        ]
        for which, (threshold, certified) in enumerate(thresholds):
            for size in (0.5, 2.0):
                moved = nudged(a, size * threshold, rng)
                # the closure and kernel certificates pass below their thresholds and fail above them;
                # above its own, the multiplicativity bound has no allowance left
                if which != 1:
                    assert certified(moved) == (size < 1)
                elif size > 1:
                    assert not certified(moved)
                if which == 0:
                    assert verdict(Subalgebra.validate, moved) == verdict(closure_check, moved)
                    if star:  # D's mask is symmetric: the closure certificate covers its adjoints too
                        assert verdict(moved.validate) == verdict(star_closure_check, moved)
                cases += [(moved, d, phi.map_matrix), (moved, d, broken), (moved, d, transpose)]
    # every case on both storages: the matrix, which the constructor composes with the domain's
    # projection, and factors, the block factors for the intact character and else the realigned
    # SVD of the composed matrix; factors reach the same statistics by other products, so their
    # messages are compared with the numbers masked
    for domain, target, k in cases:
        dense = DCharacter(k, domain, target, check=False)
        factors = phi.factors if k is phi.map_matrix and not star else as_factors(dense.map_matrix)
        factored = DCharacter(factors, domain, target, check=False)
        assert masked(verdict(factored.validate)) == masked(verdict(dense.validate))
        for f, same in ((dense, lambda outcome: outcome), (factored, masked)):
            want = verdict(multiplicative_check, f)
            f_kappa = f.norm()
            assert same(verdict(f._check_multiplicative, f_kappa)) == same(want)
            for passed in (_multiplicative_from_defects(f, f_kappa), unit_products_multiplicative(f, f_kappa)):
                assert want is None or not passed
            if k is broken and not star:  # x_{0, n-1} lies in A, so the nudge breaks Phi
                assert want is not None and want[1].startswith("multiplicative: ")
            null = null_space_kernel(f)
            assert f.kernel.size == null.size and same_subspace(f.kernel, null)
            if f.kernel_tau is not None:
                assert f.kernel.flat.tobytes() == mask_kernel_rows(domain, target).tobytes()
            assert same(verdict(f.validate)) == same(pairwise_verdict(f))


def masked(outcome):
    """A verdict with the numbers of its message masked."""
    return outcome if outcome is None else (outcome[0], re.sub(r"-?\d\.\d+e[+-]\d+", "#", outcome[1]))


def gram_defect(space):
    """||G - I||_F for the Gram matrix G of a subspace's rows: how far the dense constructors'
    composition with sum_j x_j x_j* is from the projection onto the span."""
    return hs_norm(space.flat.conj() @ space.flat.T - np.eye(space.size))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.sampled_from(["coordinate", "haar", "off-unitary"]),
       st.sampled_from([None, "closure", "kernel", "multiplicative"]), st.sampled_from([0.5, 2.0]), st.data())
def test_factored_block_characters_agree_with_the_dense_sandwich(n, rotation, nudge, size, data):
    # the block character kept as its block factors (representing._pinching) against the dense s K s*
    # of dense_oracle.sandwich_block_character, on A and D in coordinates, Haar-rotated or rotated by
    # a u off unitary by about 1e-11 (which drops the patterns), with A's rows nudged off its mask at
    # half and twice the closure, kernel and multiplicativity thresholds: one verdict, class and
    # message (numbers masked), the same images, the same kernel and the same module gaps
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    blocks = random_partition(n, rng)
    a, d = block_upper_triangular(n, blocks), block_diagonal_algebra(n, blocks)
    u = None
    if rotation != "coordinate":
        u = haar_unitary(n, rng)
        if rotation == "off-unitary":
            u = u @ np.diag(1.0 + 1e-11 * np.linspace(1.0, 2.0, n))
        a, d = unitary_conjugate_algebra(a, u), unitary_conjugate_algebra(d, u)
    assert (a.pattern is None) == (rotation == "off-unitary")
    if nudge is not None and a.pattern is not None and not a.pattern[1].all():
        kappa = hs_norm(pinching_matrix(n, blocks))
        _, _, defect = algebras._pattern_coordinates(a)
        threshold = {"closure": algebras._closure_threshold(a.dim, defect), "kernel": kernel_threshold(a.dim, defect),
                     "multiplicative": multiplicative_threshold(kappa, defect)}[nudge]
        a = nudged(a, size * threshold, rng)
    factors = representing._pinching(block_diagonal_algebra(n, blocks), u)
    assert masked(verdict(DCharacter, factors, a, d)) == masked(verdict(sandwich_block_character, blocks, u, a, d))
    got, want = DCharacter(factors, a, d, check=False), sandwich_block_character(blocks, u, a, d, check=False)
    assert isinstance(got.factors, linalg.SandwichSum) and want.factors is None
    # the dense map is composed with sum_j x_j x_j*, the projection onto A up to the rows' Gram defect
    bound = (1e-12 * n + gram_defect(a.space)) * max(1.0, want.norm())
    assert abs(got.norm() - want.norm()) <= bound
    assert np.linalg.norm(got.images - want.images) <= bound
    assert got.kernel.size == want.kernel.size and same_subspace(got.kernel, want.kernel)
    # the gaps of two maps differ by at most 2 ||d|| times the distance of the maps, ||d|| = 1
    apart = np.linalg.norm(got.map_matrix - want.map_matrix)
    assert np.abs(got.module_gaps() - want.module_gaps()).max() <= bound + 2 * apart


def test_a_rotation_that_is_not_unitary_drops_the_pattern():
    # the diagonal D of M_3 under two diagonal scalings, whose images are D again, and under the
    # shear I + E_01, whose image is not an algebra.  The conjugated basis is not orthonormalized
    # again, so diag(1, 2, 1/2) and the shear are rejected up front, with ||u*u - I|| in the
    # message; diag(1, 1 + 1e-10, 1), unitary within 1e-9 but not within the pattern's 1e-12,
    # passes pair by pair, as the element by element build does
    d = block_diagonal_algebra(3, [[0], [1], [2]])
    near, far = np.diag([1.0, 1.0 + 1e-10, 1.0]), np.diag([1.0, 2.0, 0.5])
    assert verdict(unitary_conjugate_algebra, d, near) is None
    assert verdict(elementwise_conjugate, d, near) is None
    for u in (far, np.eye(3) + unit(3, 0, 1)):
        defect = hs_norm(dagger(u) @ u - np.eye(3))
        want = (InvariantViolation, f"rotation: u is not unitary (||u*u - I|| = {defect:.3e})")
        assert verdict(unitary_conjugate_algebra, d, u) == want
    image = unitary_conjugate_algebra(d, near)
    assert image.pattern is None and isinstance(image, StarAlgebra)
    assert same_subspace(image.space, d.space)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.data())
def test_corner_algebras_keep_the_pattern_of_a_commuting_support(n, rotated, data):
    # a block diagonal D, in coordinates or rotated, cut down by the sum of some of its blocks'
    # units, which commutes with D, and by a random projection, which in general does not: the
    # corner algebra spans what from_spanning of the compressed basis spans and gets its
    # verdict, class and message; the commuting corner keeps a pattern that certifies it
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    blocks = random_partition(n, rng)
    d = block_diagonal_algebra(n, blocks)
    u = haar_unitary(n, rng) if rotated else np.eye(n)
    if rotated:
        d = unitary_conjugate_algebra(d, u)
    kept = [i for blk in blocks[: int(rng.integers(1, len(blocks) + 1))] for i in blk]
    commuting = u @ np.diag(np.isin(np.arange(n), kept).astype(float)) @ dagger(u)
    for p in (commuting, random_projection(n, rng)):
        corner = Corner(projection_isometry(p))
        want = verdict(from_spanning, corner.compress(d.space.tensor))
        assert verdict(algebras.corner_algebra, d, corner) == want
        if want is None:
            c = algebras.corner_algebra(d, corner)
            assert same_subspace(c.space, from_spanning(corner.compress(d.space.tensor)).space)
            assert verdict(closure_check, c) is None
    c = algebras.corner_algebra(d, Corner(projection_isometry(commuting)))
    assert c.pattern is not None and algebras._closure_certified(c)


def repatterned(alg, pattern):
    """A second algebra object over alg's rows that carries the given pattern."""
    copy = type(alg)(alg.space, check=False)
    copy.pattern = pattern
    return copy


def splitting_certified(phi):
    """_splitting_certified with the statistics DCharacter.validate hands it."""
    rows = phi.range_alg.space.flat
    tau = hs_norm(phi.kernel.flat @ phi.map_matrix.T)
    return _splitting_certified(tau, hs_norm(linalg.hs_norms(rows @ phi.map_matrix.T - rows)), hs_norm(phi.map_matrix))


def assert_mask_routes_agree(a, d, phi, m):
    """Each mask fact on (A, D, Phi) gets the verdict of its dense route: check_ss_density, diagonal_part_check
    with and without Phi, the commutant of D within M and within None as a subspace, and validate's class and
    message with the splitting certificate and with the SVD alone; returns the verdicts of the sum, the
    intersection (without Phi) and the commutant certificates."""
    assert check_ss_density(a, m) == svd_ss_density(a, m)
    assert diagonal_part_check(a, d) == null_space_diagonal_part(a, d)
    assert diagonal_part_check(a, d, phi) == null_space_diagonal_part(a, d, phi)
    want = bracket_stack_commutant(d.basis, m)
    for within in (m, None):
        assert same_subspace(commutant(d, within).space, want)
    f = DCharacter(phi.map_matrix, a, d, check=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(representing, "_splitting_certified", lambda *args: False)
        dense = verdict(f.validate)
    assert verdict(f.validate) == dense
    if splitting_certified(f):
        assert svd_splitting(f)
    return (algebras._sum_certified(a), algebras._intersection_certified(a, d, None),
            algebras._pattern_commutant(d, m) is not None)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.data())
def test_mask_certificates_agree_with_the_dense_routes(n, rotated, data):
    # the block character in coordinates or rotated, intact, and broken four ways: its u off by
    # more than _UNITARY_DEFECT, the rows of A or of D nudged off their masks at half and twice a
    # certificate's threshold, D for A (A + A* misses M unless D = M), and a Phi that kills a unit of D
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = haar_unitary(n, rng) if rotated else None
    a, d, phi = _block_character(n, random_partition(n, rng), u)
    m = full_matrix_algebra(n)
    assert assert_mask_routes_agree(a, d, phi, m) == (True, True, True)
    assert algebras._intersection_certified(a, d, phi) and splitting_certified(phi)

    far = (np.eye(n) if u is None else u) * (1.0 + 1e-11)
    assert algebras._unitary_defect(far) > algebras._UNITARY_DEFECT
    off = [repatterned(x, (far, x.pattern[1])) for x in (a, d)]
    assert assert_mask_routes_agree(*off, phi, m) == (False, False, False)

    # delta at half and twice the intersection's threshold, the sum's and the commutant's, for A or D
    # when its mask leaves entries to move the rows to
    for bound in (tol(1e-9) / 4, 0.375, 1.0 / 16):
        for size, which in itertools.product((0.5 * bound, 2.0 * bound), (0, 1)):
            pair = [a, d]
            if pair[which].pattern[1].all():
                continue
            pair[which] = nudged(pair[which], size / np.sqrt(pair[which].dim), rng)
            got = assert_mask_routes_agree(*pair, phi, m)
            if which == 0 and bound < 1e-6:  # A's rows stay orthonormal to rounding
                assert got[1] == (size < bound)

    star_phi = DCharacter(np.eye(n * n), d, d)
    assert assert_mask_routes_agree(d, d, star_phi, m)[:2] == (d.dim == n * n, True)
    assert svd_ss_density(d, m) == (d.dim == n * n)

    # a unit of D orthogonal to I when D has one, so that Phi stays unital
    eye = np.eye(n).ravel() / np.sqrt(n)
    rest = d.space.flat - np.outer(d.space.flat @ eye, eye)
    unit_d = rest[np.argmax(np.linalg.norm(rest, axis=1))] if d.dim > 1 else eye
    unit_d = unit_d / np.linalg.norm(unit_d)
    kill = phi.map_matrix @ (np.eye(n * n) - np.outer(unit_d, unit_d.conj()))
    broken = DCharacter(kill, a, d, check=False)
    assert verdict(broken.validate)[1].startswith("fixes D: " if d.dim > 1 else "unital: ")
    assert not diagonal_part_check(a, d, broken)
    assert_mask_routes_agree(a, d, broken, m)


@pytest.mark.parametrize("n", range(2, 11))
def test_identity_domain_passes_the_map_through_bitwise(n):
    # on full_matrix_algebra's identity rows the images and the composed map are K^T and K,
    # byte for byte what the two products with the identity give, for a seeded map and the pinching
    rng = np.random.default_rng(n)
    m = full_matrix_algebra(n)
    blocks = random_partition(n, rng)
    pinching = pinching_matrix(n, blocks)
    for k in (random_complex((n * n, n * n), rng), pinching):
        images, composed = _domain_images(k, m)
        want = m.space.flat @ k.T
        assert images.tobytes() == want.tobytes()
        assert composed.tobytes() == (want.T @ m.space.flat.conj()).tobytes()


@pytest.mark.parametrize("blocks", [None, [[0], [1], [2]]])
def test_identity_domain_passes_the_corner_map_through_bitwise(monkeypatch, blocks):
    # ACCEPTANCE 01's corner, omega = e_33 on M_3, with D = span{I, e_33} or the diagonal: the
    # support-ideal build, whose lifted map has domain M, stores the bytes of the gemm route
    e33 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    omega, m = PositiveFunctional(e33), full_matrix_algebra(3)
    d = from_spanning([np.eye(3), e33]) if blocks is None else block_diagonal_algebra(3, blocks)
    got = support_ideal_expectation(omega, d, m)
    monkeypatch.setattr(expectations, "_identity_rows", lambda flat: False)
    want = support_ideal_expectation(omega, d, m)
    assert got.images.tobytes() == want.images.tobytes()
    assert got.map_matrix.tobytes() == want.map_matrix.tobytes()


def dense_pullback(k, rho):
    """Hermitian part of the density sigma with Tr(sigma x) = Tr(rho K(x)) for every x."""
    n = len(rho)
    sigma = (k.T @ rho.T.ravel()).reshape(n, n).T
    return (sigma + dagger(sigma)) / 2


def random_projection(n, rng):
    v, _ = np.linalg.qr(random_complex((n, int(rng.integers(1, n + 1))), rng))
    return v @ dagger(v)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.sampled_from([0.0, 1e-6, 1e-2, 1.0]), st.sampled_from("MAD"), st.data())
def test_image_statistics_match_the_dense_operators(n, noise, which, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inst = random_block_instance(n, rng, conjugate=data.draw(st.booleans()))
    e = preserving_expectation(inst.state, inst.d, inst.m)
    # a valid or perturbed map on M, on A (the character) or on the *-algebra D
    domain, k = {"M": (inst.m, e.map_matrix), "A": (inst.a, inst.phi.map_matrix), "D": (inst.d, e.map_matrix)}[which]
    k = k + noise * random_complex(k.shape, rng)
    f = ConditionalExpectation(k, domain, inst.d.space, np.eye(n), inst.d, check=False)
    p = projector_matrix(domain.space)
    kp = k @ p
    bound = 1e-12 * max(1.0, np.linalg.norm(k))
    assert np.linalg.norm(f.map_matrix - kp) <= bound

    # range: ||(I - P_D) K P||
    want = np.linalg.norm(perp_projector_matrix(inst.d.space) @ kp)
    assert abs(hs_norm(inst.d.space.residuals(f.images)) - want) <= bound

    # support_of_map at a random projection z: ||(K - K S_z) P|| and ||(L_z - R_z) K P||
    z = random_projection(n, rng)
    gap, side = _support_gaps(f, z)
    assert abs(gap - np.linalg.norm((kp - kp @ sandwich(z, z)) @ p)) <= bound
    assert abs(side - np.linalg.norm((left_mult_matrix(z) - right_mult_matrix(z)) @ kp @ p)) <= bound

    # the extension gap of f against the perturbed character, on A: ||(Psi - Phi) P_A||
    phi = DCharacter(inst.phi.map_matrix + noise * random_complex(k.shape, rng), inst.a, inst.d, check=False)
    want = np.linalg.norm((kp - phi.map_matrix) @ projector_matrix(inst.a.space))
    assert abs(_extension_gap(f, phi) - want) <= 1e-12 * max(1.0, np.linalg.norm(k), np.linalg.norm(phi.map_matrix))

    # commutes_with_modular: ad = L - R of log rho, and the flow x -> u x u* at the sampled times
    nu = random_density(n, rng)
    inf_stat, ad_norm, sampled_map, sampled_pull, sigma = _modular_gaps(f, nu)
    w, v = np.linalg.eigh(nu.density)
    log_rho = (v * np.log(w)) @ dagger(v)
    ad = left_mult_matrix(log_rho) - right_mult_matrix(log_rho)
    assert abs(ad_norm - np.linalg.norm(ad)) <= 1e-12 * max(1.0, np.linalg.norm(ad))
    assert abs(inf_stat - np.linalg.norm((kp @ ad - ad @ kp) @ p)) <= bound
    assert np.linalg.norm(sigma - dense_pullback(kp, nu.density)) <= bound
    want_map = want_pull = 0.0
    for t in (0.1, 1.0, np.sqrt(2.0)):
        u = (v * np.exp(1j * t * np.log(w))) @ dagger(v)
        s = sandwich(u, dagger(u))
        want_map = max(want_map, np.linalg.norm((kp @ s - s @ kp) @ p))
        want_pull = max(want_pull, np.linalg.norm(dense_pullback(kp @ s @ p, nu.density) - sigma))
    assert abs(sampled_map - want_map) <= bound
    # the drift formula P(u* sigma u) - sigma holds on a *-closed domain, as every expectation's is
    if which != "A":
        assert abs(sampled_pull - want_pull) <= bound


def test_the_constructors_compose_with_the_domain_projection():
    rng = np.random.default_rng(7)
    # an expectation from the *-algebra M' = M_2 + M_2 onto the diagonal, and a block character
    m2 = block_diagonal_algebra(4, [[0, 1], [2, 3]])
    d = diagonal_algebra(4)
    e = preserving_expectation(PositiveFunctional.tracial(4), d, m2)
    a, d_a, phi = make_block_character(4, [[0, 1], [2, 3]])
    for k, build, domain in (
        (e.map_matrix, lambda k: ConditionalExpectation(k, m2, d.space, np.eye(4), d), m2),
        (phi.map_matrix, lambda k: DCharacter(k, a, d_a), a),
    ):
        # what an uncomposed k does off the domain is dropped: k itself is stored as k P
        off = random_complex((16, 16), rng) @ perp_projector_matrix(domain.space)
        got = build(k + off)
        assert np.linalg.norm(got.map_matrix - k) <= 1e-12
        assert np.linalg.norm(got.images - domain.space.flat @ k.T) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_subspace_intersection_matches_the_stacked_complement_kernel(n, common, only_s, only_t, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shared = list(random_complex((common, n, n), rng))
    s = orthonormalize(shared + list(random_complex((only_s, n, n), rng)) or [np.eye(n)])
    t = orthonormalize(shared + list(random_complex((only_t, n, n), rng)) or [np.eye(n)])
    got = subspace_intersection(s, t)
    _, sv, vh = np.linalg.svd(np.vstack([perp_projector_matrix(s), perp_projector_matrix(t)]))
    want = vh[int(np.sum(sv > tol(1e-9) * max(1.0, sv[0]))):].conj()
    assert got.size == len(want)
    assert np.allclose(got.flat @ got.flat.conj().T, np.eye(got.size), atol=1e-10)
    assert np.allclose(projector_matrix(got), want.T @ want.conj(), atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 7), st.integers(1, 7), st.data())
def test_pair_products_match_einsum(n, p, r, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a, b = random_complex((p, n, n), rng), random_complex((r, n, n), rng)
    got = pair_products(a, b)
    assert got.shape == (p, r, n, n)
    assert np.allclose(got, np.einsum("aij,bjk->abik", a, b), rtol=0, atol=1e-12 * n)


def test_null_space_rows_qr_first_matches_the_full_svd():
    rng = np.random.default_rng(5)
    for rows, cols, rank in [(40, 6, 6), (40, 6, 3), (300, 25, 11), (64, 16, 0), (17, 16, 9), (9, 4, 4)]:
        a = random_complex((rows, rank), rng) @ random_complex((rank, cols), rng)
        got = null_space_rows(a)
        _, s, vh = np.linalg.svd(a)
        want_rank = int(np.sum(s > tol(1e-9) * max(1.0, float(s[0]))))
        want = vh[want_rank:].conj()
        assert got.shape == want.shape == (cols - want_rank, cols)
        assert want_rank == rank
        # the same kernel: equal orthogonal projectors, and a kills every row
        assert np.allclose(got.T @ got.conj(), want.T @ want.conj(), atol=1e-9)
        assert np.allclose(got @ got.conj().T, np.eye(len(got)), atol=1e-10)
        assert np.linalg.norm(a @ got.T) <= 1e-9 * max(1.0, np.linalg.norm(a))


def test_validation_peak_memory_grows_like_n4():
    # n = 10, blocks (1, 3, 6) rotated: the dense n^2 x n^2 sides peaked at 44 MB
    # (ConditionalExpectation) and 34 MB (DCharacter) here
    n = 10
    a, d, phi = make_block_character(n, [[0], [1, 2, 3], [4, 5, 6, 7, 8, 9]])
    u = haar_unitary(n, np.random.default_rng(3))
    s = sandwich_matrix(u, dagger(u))
    a = unitary_conjugate_algebra(a, u)
    d = unitary_conjugate_algebra(d, u)
    phi = DCharacter(s @ phi.map_matrix @ dagger(s), a, d)
    e = preserving_expectation(PositiveFunctional.tracial(n), d, full_matrix_algebra(n))
    peaks = []
    tracemalloc.start()
    try:
        for validate in (e.validate, phi.validate):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            validate()
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 12.0, peaks


def test_expectation_validation_peak_memory_at_n16():
    # the module check reads the map's operator-Schmidt factors, 2 dim D' of them here, and
    # forms their commutators with a chunk of D's basis at a time (2.3 MB in all at n = 16);
    # reading the domain basis and its images instead peaked at 12.05 MB.  The instance build
    # is most of this test's time: 0.37 s in all on a 2-core VM with the pattern certificates,
    # 2.24 s when the closure and multiplicative checks formed every basis product
    inst = random_block_instance(16, np.random.default_rng(3), conjugate=True)
    e = preserving_expectation(inst.state, inst.d, inst.m)
    tracemalloc.start()
    try:
        e.validate()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 8.0, peak


def unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def block_projections(n, blocks):
    return [sum(unit(n, i, i) for i in blk) for blk in blocks]


def row_units(n):
    """E_12, ..., E_1n: two generic combinations g_1, g_2 of them generate only span{I, g_1, g_2}."""
    return [unit(n, 0, j) for j in range(1, n)]


def repeated_blocks(n, rng):
    """M_k (x) 1_mult on the first k * mult coordinates plus all of M_rest on the others, n >= 2."""
    mult = int(rng.integers(2, n // 2 + 1)) if n >= 4 else 2
    k = int(rng.integers(1, n // mult + 1))
    lead = [np.kron(unit(k, i, j), np.eye(mult)) for i in range(k) for j in range(k)]
    mats = [np.pad(x, (0, n - k * mult)) for x in lead]
    mats += [unit(n, i, j) for i in range(k * mult, n) for j in range(k * mult, n)]
    return from_spanning(mats)


def commutant_case(kind, n, rng):
    """(s, within) for the comparison of the certified commutant with the bracket stack."""
    m = full_matrix_algebra(n)
    u = haar_unitary(n, rng)
    if kind == "blocks":
        return unitary_conjugate_algebra(block_diagonal_algebra(n, random_partition(n, rng)), u), m
    if kind == "repeated":
        return unitary_conjugate_algebra(repeated_blocks(n, rng), u), m
    if kind == "abelian":
        return unitary_conjugate_algebra(from_spanning(block_projections(n, random_partition(n, rng))), u), m
    if kind == "triangular":
        return unitary_conjugate_algebra(block_upper_triangular(n, random_partition(n, rng)), u), m
    if kind == "within":
        # a rotated block-diagonal D inside a block upper triangular A rotated the same way
        d = unitary_conjugate_algebra(block_diagonal_algebra(n, random_partition(n, rng)), u)
        return d, unitary_conjugate_algebra(block_upper_triangular(n, random_partition(n, rng)), u)
    # a density with repeated eigenvalues, alone or with the projection onto its support
    rank = int(rng.integers(1, n + 1))
    v = u[:, :rank]
    rho = (v * rng.choice([0.1, 0.3, 0.6], size=rank)) @ dagger(v)
    return ([rho] if kind == "density" else [v @ dagger(v), rho]), m


def adjoint_closed(space):
    n = space.ambient_dim
    adjoints = np.conj(np.swapaxes(space.tensor, 1, 2)).reshape(space.size, n * n)
    return bool(np.all(space.residuals(adjoints) <= 1e-9))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["blocks", "repeated", "abelian", "triangular", "within", "density", "support", "row-units"]),
    st.integers(2, 6),
    st.data(),
)
def test_commutant_matches_the_bracket_stack(kind, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "row-units":
        s, within = row_units(max(n, 3)), full_matrix_algebra(max(n, 3))
    else:
        s, within = commutant_case(kind, n, rng)
    got = commutant(s, within)
    want = bracket_stack_commutant(algebras._generating_set(s), within)
    assert same_subspace(got.space, want)
    assert np.allclose(got.space.flat @ got.space.flat.conj().T, np.eye(got.dim), atol=1e-10)
    # a StarAlgebra exactly when the commutant is adjoint-closed
    assert isinstance(got, StarAlgebra) == adjoint_closed(want)


def test_commutant_runs_the_later_batches_when_the_certificate_fails(monkeypatch):
    verdicts, batches = [], []
    certify, restrict = algebras._commutes_with, algebras._restrict

    def spy_certify(*args):
        verdicts.append(certify(*args))
        return verdicts[-1]

    def spy_restrict(flat, gens):
        batches.append(len(gens))
        return restrict(flat, gens)

    monkeypatch.setattr(algebras, "_commutes_with", spy_certify)
    monkeypatch.setattr(algebras, "_restrict", spy_restrict)
    s = row_units(4)
    got = commutant(s, full_matrix_algebra(4))
    # the generic pair leaves span{I, g_1, g_2}'s commutant, which the certificate rejects;
    # the set's own three elements then fit in one later batch
    assert verdicts == [False]
    assert batches == [2, 3]
    assert same_subspace(got.space, bracket_stack_commutant(s, full_matrix_algebra(4)))
    assert got.dim == 4 and not isinstance(got, StarAlgebra)


def test_commutant_peak_memory_at_n16():
    # D = M_5 + M_5 + M_6 in M_16: the bracket stack over D's 86 basis elements peaked at 259 MB
    n = 16
    d = block_diagonal_algebra(n, [list(range(0, 5)), list(range(5, 10)), list(range(10, 16))])
    m = full_matrix_algebra(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        c = commutant(d, m)
        peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 16.0, peak
    assert c.dim == 3


def _probe_instance(n, shape, density, rng):
    """A Haar-rotated block D in M_n, its rotation u, and a central, non-central or truncated state."""
    blocks = {"one": [list(range(n))], "commutative": [[i] for i in range(n)], "mixed": random_partition(n, rng)}[shape]
    if density == "truncated" and len(blocks) == 1 and n > 1:  # truncating to blocks needs a second one
        blocks = [[0], list(range(1, n))]
    u = haar_unitary(n, rng)
    d = unitary_conjugate_algebra(block_diagonal_algebra(n, blocks), u)
    if density == "noncentral":
        return d, random_density(n, rng)
    omega = random_central_density(n, d, rng)
    if density == "central" or len(blocks) == 1:
        return d, omega
    keep = np.zeros((n, n))
    for blk in blocks[: int(rng.integers(1, len(blocks)))]:
        keep[blk, blk] = 1.0
    z = u @ keep @ dagger(u)  # a central projection of the rotated D
    rho = z @ omega.density @ z
    return d, PositiveFunctional(rho / float(np.trace(rho).real))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from(["one", "commutative", "mixed"]),
    st.sampled_from([1, 4, 16, 64]),
    st.sampled_from(["central", "noncentral", "truncated"]),
    st.integers(0, 2**32 - 1),
)
def test_centrality_probes_match_the_loop_oracles(n, shape, cap, density, seed):
    # statistics agree to 1e-12 of the larger of the value and ||rho||: a central
    # state's violations are rounding noise, which the two summation orders do not share
    d, omega = _probe_instance(n, shape, density, np.random.default_rng(seed))
    m = full_matrix_algebra(n)
    got, want = sample_projections(d, cap), loop_sample_projections(d, cap)
    assert len(got) == len(want)
    assert max(np.abs(p - q).max() for p, q in zip(got, want)) <= 1e-12

    scale = hs_norm(omega.density)
    threshold = tol(1e-9) * scale
    central, central_want = states._central_violation(omega, d, m), einsum_central_violation(omega, d, m)
    assert abs(central - central_want) <= 1e-12 * max(central_want, scale)
    local = states._local_violation(omega, np.stack(got), d, m)
    local_want = broadcast_local_violation(omega, want, d, m)
    assert abs(local - local_want) <= 1e-12 * max(local_want, scale)
    assert is_D_central(omega, d, m)[0] == (central_want <= threshold)
    assert locally_central_check(omega, d, m, cap_proj=cap) == (local_want <= threshold)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_commutative_sampling_stops_once_every_projection_is_held(monkeypatch, n):
    # the diagonal algebra of M_n has 2^n - 1 nonzero projections, fewer than the cap of 16
    drawn = []
    real_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self.rng = real_rng(seed)
            drawn.append(0)

        def standard_normal(self, size):
            out = self.rng.standard_normal(size)
            drawn[-1] += out.size
            return out

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    d = diagonal_algebra(n)
    want = loop_sample_projections(d, 16)
    got = sample_projections(d, 16)
    assert len(got) == len(want) == 2**n - 1
    assert max(np.abs(p - q).max() for p, q in zip(got, want)) <= 1e-12
    assert drawn[1] < drawn[0]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["full", "blocks", "repeated"]), st.integers(2, 6), st.floats(-14, -6), st.booleans(), st.data())
def test_faithfulness_on_a_star_algebra_agrees_with_the_gram_route(kind, n, exponent, aligned, data):
    # omega faithful on B, decided on the n x n spectrum of P_B(rho) and on the (dim B)^2 Gram
    # matrix.  rho has one eigenvalue 10^exponent times its largest and is diagonal in B's rotated
    # coordinates (aligned) or in a random basis, so the verdict goes both ways; draws within 2 %
    # of the 1e-10 cutoff, where rounding may flip either route, are not compared
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = haar_unitary(n, rng)
    b = {"full": full_matrix_algebra, "blocks": lambda n: block_diagonal_algebra(n, random_partition(n, rng)),
         "repeated": lambda n: repeated_blocks(n, rng)}[kind](n)
    b = unitary_conjugate_algebra(b, u)
    weights = rng.random(n) + 0.1
    weights[rng.integers(n)] = 10.0**exponent * weights.max()
    v = u if aligned else haar_unitary(n, rng)
    omega = PositiveFunctional((v * weights) @ dagger(v))
    eigs = np.linalg.eigvalsh(omega.restricted_density(b))
    assume(abs(eigs[0] - 1e-10 * eigs[-1]) > 0.02e-10 * eigs[-1])
    assert states._faithful_on(omega, b) == gram_faithful_on(omega, b)
