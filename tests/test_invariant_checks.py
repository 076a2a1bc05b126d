"""The structured invariant checks against the dense routes they replaced.

The bimodule kernel is compared with the n^2 x n^2 left and right
multiplication matrices of every basis element, the statistics read off a
map's values on its domain basis with the dense multiplication, sandwich
and complement formulas of dense_oracle, the batched products with einsum,
the QR-first null space with a full SVD, the certified commutant with
the bracket stack over every element of the set, and the gemm centrality
probes with the loop sampler and the broadcast and einsum contractions;
the memory contracts pin
the peak of the two validations at n = 10, of an expectation's validation
at n = 16 and of a commutant at n = 16.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    bracket_stack_commutant,
    broadcast_local_violation,
    einsum_central_violation,
    left_mult_matrix,
    loop_sample_projections,
    perp_projector_matrix,
    right_mult_matrix,
    sandwich,
)
from ncrep import algebras, states
from ncrep.algebras import (
    StarAlgebra,
    block_diagonal_algebra,
    block_upper_triangular,
    commutant,
    diagonal_algebra,
    from_spanning,
    full_matrix_algebra,
    unitary_conjugate_algebra,
)
from ncrep.config import tol
from ncrep.expectations import (
    ConditionalExpectation,
    _modular_gaps,
    _support_gaps,
    preserving_expectation,
)
from ncrep.instances import (
    haar_unitary,
    random_block_instance,
    random_central_density,
    random_density,
    random_partition,
)
from ncrep.linalg import (
    bimodule_gaps,
    chunk_slices,
    dagger,
    hs_norm,
    null_space_rows,
    orthonormalize,
    pair_products,
    same_subspace,
    sandwich_matrix,
    subspace_intersection,
)
from ncrep.representing import DCharacter, _extension_gap, make_block_character
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
        p = domain.space.projector_matrix()
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
    assert np.all(gaps >= dense_side_gaps(k, b, domain.projector_matrix()) - bound)
    assert np.abs(gaps - dense_side_gaps(k, b, np.eye(n * n))).max() <= bound


def test_bimodule_gaps_across_chunks():
    # D with blocks (5, 1) in M_6: 26 basis elements, more than one chunk of the kernel
    rng = np.random.default_rng(11)
    a, d, phi = make_block_character(6, [[0, 1, 2, 3, 4], [5]])
    b = d.space.tensor
    assert len(chunk_slices(len(b), 2 * 6**4)) > 1
    eye = np.eye(36)
    for k, p in ((phi.map_matrix, a.space.projector_matrix()), (eye + 1e-3 * random_complex((36, 36), rng), eye)):
        gaps = bimodule_gaps(k, b)
        want = dense_side_gaps(k, b, p)
        assert np.abs(gaps - want).max() <= 1e-12 * max(1.0, np.linalg.norm(k))


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
    p = domain.space.projector_matrix()
    kp = k @ p
    bound = 1e-12 * max(1.0, np.linalg.norm(k))
    assert np.linalg.norm(f.map_matrix - kp) <= bound

    # range: ||(I - P_D) K P||
    want = np.linalg.norm(perp_projector_matrix(inst.d.space) @ kp)
    assert abs(hs_norm(inst.d.space.residuals(f.images)) - want) <= bound

    # support_of_map at a random projection z: ||(K - K S_z) P|| and ||(L_z - R_z) K P||
    z = random_projection(n, rng)
    gap, side = _support_gaps(f.map_matrix, f.images, domain, z)
    assert abs(gap - np.linalg.norm((kp - kp @ sandwich(z, z)) @ p)) <= bound
    assert abs(side - np.linalg.norm((left_mult_matrix(z) - right_mult_matrix(z)) @ kp @ p)) <= bound

    # the extension gap of f against the perturbed character, on A: ||(Psi - Phi) P_A||
    phi = DCharacter(inst.phi.map_matrix + noise * random_complex(k.shape, rng), inst.a, inst.d, check=False)
    want = np.linalg.norm((kp - phi.map_matrix) @ inst.a.space.projector_matrix())
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
    assert np.allclose(got.projector_matrix(), want.T @ want.conj(), atol=1e-9)


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
    # the module check reads the map as a 4-tensor, one side and one element at a time;
    # reading the domain basis and its images instead peaked at 12.05 MB
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


def commutant_case(kind, n, rng):
    """(s, within) for the comparison of the certified commutant with the bracket stack."""
    m = full_matrix_algebra(n)
    u = haar_unitary(n, rng)
    if kind == "blocks":
        return unitary_conjugate_algebra(block_diagonal_algebra(n, random_partition(n, rng)), u), m
    if kind == "repeated":
        # M_k (x) 1_mult on the first k * mult coordinates, all of M_rest on the others
        mult = int(rng.integers(2, n // 2 + 1)) if n >= 4 else 2
        k = int(rng.integers(1, n // mult + 1))
        lead = [np.kron(unit(k, i, j), np.eye(mult)) for i in range(k) for j in range(k)]
        mats = [np.pad(x, (0, n - k * mult)) for x in lead]
        mats += [unit(n, i, j) for i in range(k * mult, n) for j in range(k * mult, n)]
        return unitary_conjugate_algebra(from_spanning(mats), u), m
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
