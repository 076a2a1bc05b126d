"""The structured invariant checks against the dense routes they replaced.

The bimodule kernel is compared with the n^2 x n^2 left and right
multiplication matrices of every basis element, the batched products with
einsum, and the QR-first null space with a full SVD; the memory contract
pins the peak of the two validations at n = 10.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrep.algebras import full_matrix_algebra, unitary_conjugate_algebra
from ncrep.config import tol
from ncrep.expectations import preserving_expectation
from ncrep.instances import haar_unitary, random_block_instance
from ncrep.linalg import (
    bimodule_gaps,
    chunk_slices,
    dagger,
    null_space_rows,
    pair_products,
    sandwich_matrix,
)
from ncrep.representing import DCharacter, make_block_character
from ncrep.states import PositiveFunctional


def dense_side_gaps(k, b, p_dom):
    """||(K S - S K) P|| for S the matrix of x -> dx (row 0) and of x -> xd (row 1), d in b."""
    n = b.shape[1]
    eye = np.eye(n)
    sides = np.empty((2, len(b), n, n, n, n), dtype=complex)
    sides[0] = b[:, :, None, :, None] * eye[None, None, :, None, :]
    sides[1] = eye[None, :, None, :, None] * b.transpose(0, 2, 1)[:, None, :, None, :]
    sides = sides.reshape(2, len(b), n * n, n * n)
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
    # the expectation's case (domain M) and the character's (domain A), valid or perturbed
    for k, domain in ((e.map_matrix, inst.m), (inst.phi.map_matrix, inst.a)):
        k = k + noise * random_complex(k.shape, rng)
        left, right = bimodule_gaps(k, b, domain.space.flat)
        assert left.shape == right.shape == (len(b),)
        want = dense_side_gaps(k, b, domain.space.projector_matrix())
        bound = 1e-12 * max(1.0, np.linalg.norm(k))
        assert np.abs(left - want[0]).max() <= bound
        assert np.abs(right - want[1]).max() <= bound


def test_bimodule_gaps_across_chunks():
    # D with blocks (5, 1) in M_6: 26 basis elements, more than one chunk of the kernel
    rng = np.random.default_rng(11)
    a, d, phi = make_block_character(6, [[0, 1, 2, 3, 4], [5]])
    b = d.space.tensor
    assert len(chunk_slices(len(b), 8 * 36 * 36)) > 1
    m = full_matrix_algebra(6)
    for k in (phi.map_matrix, m.space.projector_matrix() + 1e-3 * random_complex((36, 36), rng)):
        gaps = bimodule_gaps(k, b, m.space.flat)
        want = dense_side_gaps(k, b, m.space.projector_matrix())
        assert np.abs(gaps - want).max() <= 1e-12 * max(1.0, np.linalg.norm(k))


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
    phi = DCharacter(s @ phi.map_matrix @ dagger(s) @ a.space.projector_matrix(), a, d)
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
