import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dense_oracle import left_mult_matrix, map_matrix_from_action, right_mult_matrix
from ncrep.errors import DimensionMismatch, EmptyInput, NotHermitian, NotPositiveDefinite
from ncrep.algebras import full_matrix_algebra
from ncrep.instances import random_density
from ncrep.linalg import (
    Corner,
    apply_map,
    commutation_gap,
    commutator,
    constraint_system,
    dagger,
    eigh_hermitian,
    hs_norm,
    hs_norms,
    imag_power,
    matpow,
    minimal_norm_solution,
    orthonormalize,
    psd_sqrt,
    same_subspace,
    sandwich_matrix,
    subspace_intersection,
    subspace_sum,
)


def hermitian(n, rng):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + dagger(x)) / 2


def positive_definite(n, rng):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x @ dagger(x) + 0.1 * np.eye(n)


def newton_sqrt(a, iters=60):
    # inverse-coupled Newton iteration (stable form), converges for positive definite a
    y = np.asarray(a, dtype=complex)
    z = np.eye(a.shape[0], dtype=complex)
    for _ in range(iters):
        y, z = 0.5 * (y + np.linalg.inv(z)), 0.5 * (z + np.linalg.inv(y))
    return y


def test_hs_inner_convention():
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    y = np.array([[0, 1j], [0, 0]], dtype=complex)
    # <x, y> = Tr(y* x) = np.vdot(y, x), linear in the first argument
    assert np.vdot(y, x) == pytest.approx(np.trace(dagger(y) @ x))
    assert np.vdot(y, 1j * x) == pytest.approx(1j * np.trace(dagger(y) @ x))


def test_hs_norm_survives_overflowing_squares():
    assert hs_norm(np.full((2, 2), 1e200)) == pytest.approx(2e200)
    assert hs_norm(np.array([[3e300, 0.0], [0.0, 4e300j]])) == pytest.approx(5e300)
    assert hs_norm(np.array([1.0, np.inf])) == np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hs_norms_is_hs_norm_per_entry():
    stack = np.array([[[3e300, 0.0], [0.0, 4e300j]], [[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 1e-100]]])
    assert np.allclose(hs_norms(stack), [5e300, 5.0, 1e-100], rtol=1e-14, atol=0)
    assert np.allclose(hs_norms(stack), [hs_norm(x) for x in stack], rtol=1e-15, atol=0)
    assert np.isnan(hs_norms(np.array([[np.nan, 1.0]])))[0] and hs_norms(np.array([[np.inf, 1.0]]))[0] == np.inf
    assert hs_norms(np.zeros((0, 3, 3))).shape == (0,)
    assert np.isnan(hs_norm(np.array([1.0, np.nan])))
    assert hs_norm(np.zeros((0, 0))) == 0.0


def test_psd_sqrt_matches_newton():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        a = positive_definite(n, rng)
        assert np.allclose(psd_sqrt(a), newton_sqrt(a), atol=1e-9)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_matpow_negative_requires_pd():
    assert np.allclose(matpow(np.diag([4.0, 9.0]), -0.5), np.diag([0.5, 1.0 / 3.0]))
    with pytest.raises(NotPositiveDefinite):
        matpow(np.diag([1.0, 0.0]), -1.0)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eigh_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_imag_power_frozen_phase():
    rho = np.diag([0.7, 0.3])
    u = imag_power(rho, 1.0)
    assert np.allclose(u, np.diag(np.exp(1j * np.log([0.7, 0.3]))), atol=1e-12)


def test_hs_project_strict_upper():
    upper = orthonormalize([np.array([[0.0, 1.0], [0.0, 0.0]])])
    got = upper.project(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(got, [[0.0, 2.0], [0.0, 0.0]], atol=1e-12)


def test_hs_project_scalars():
    n = 3
    scal = orthonormalize([np.eye(n)])
    x = np.arange(9.0).reshape(3, 3) + 1j
    assert np.allclose(scal.project(x), (np.trace(x) / n) * np.eye(n), atol=1e-12)


def test_orthonormalize_drops_dependent():
    e11 = np.diag([1.0, 0.0])
    e22 = np.diag([0.0, 1.0])
    s = orthonormalize([e11, e11 + 1e-15 * e22])
    assert s.size == 1
    t = orthonormalize([e11, e11 + e22])
    assert t.size == 2


def test_orthonormalize_errors():
    with pytest.raises(EmptyInput):
        orthonormalize([])
    with pytest.raises(DimensionMismatch):
        orthonormalize([np.eye(2), np.eye(3)])


def test_subspace_contains_and_coords():
    s = orthonormalize([np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]])])
    assert s.contains(np.diag([3.0, -1.0]))
    assert not s.contains(np.array([[0.0, 1.0], [0.0, 0.0]]))
    x = np.diag([2.0, 5.0])
    assert np.allclose(s.from_coords(s.coords(x)), x, atol=1e-12)


def test_subspace_sum_and_intersection():
    e = [np.zeros((2, 2)) for _ in range(4)]
    for k in range(4):
        e[k].flat[k] = 1.0
    upper = orthonormalize([e[0], e[1], e[3]])  # upper triangular
    lower = orthonormalize([e[0], e[2], e[3]])  # lower triangular
    total = subspace_sum(upper, lower)
    assert total.size == 4
    diag = subspace_intersection(upper, lower)
    assert diag.size == 2
    assert same_subspace(diag, orthonormalize([e[0], e[3]]))


def test_sandwich_and_mult_matrices():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(apply_map(sandwich_matrix(a, b), x), a @ x @ b, atol=1e-12)
    assert np.allclose(apply_map(left_mult_matrix(a), x), a @ x, atol=1e-12)
    assert np.allclose(apply_map(right_mult_matrix(b), x), x @ b, atol=1e-12)
    k = map_matrix_from_action(lambda y: a @ y @ b, 3)
    assert np.allclose(k, sandwich_matrix(a, b), atol=1e-12)


def test_minimal_norm_solution_hits_constraints():
    rows = [np.diag([1.0, 0.0]), np.eye(2)]
    r = minimal_norm_solution(constraint_system(rows), [0.25, 1.0])
    assert np.trace(r @ rows[0]) == pytest.approx(0.25)
    assert np.trace(r @ rows[1]) == pytest.approx(1.0)


complex_entries = st.complex_numbers(min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False)


@seed(2)
@settings(max_examples=40, deadline=None)
@given(arrays(complex, (3, 3), elements=complex_entries), st.floats(-3, 3))
def test_imag_power_is_unitary(x, t):
    rho = x @ dagger(x) + np.eye(3)
    u = imag_power(rho, t)
    assert hs_norm(u @ dagger(u) - np.eye(3)) <= 1e-9
    assert hs_norm(u @ rho @ dagger(u) - rho) <= 1e-8 * hs_norm(rho)


@seed(3)
@settings(max_examples=30, deadline=None)
@given(arrays(complex, (3, 3), elements=complex_entries))
def test_projection_idempotent_self_adjoint(x):
    rng = np.random.default_rng(0)
    basis = [hermitian(3, rng) for _ in range(4)]
    s = orthonormalize(basis)
    p = s.project(x)
    assert hs_norm(s.project(p) - p) <= 1e-9 * max(1.0, hs_norm(x))
    y = hermitian(3, rng)
    # self-adjointness of the projection: <Px, y> = <x, Py>
    assert abs(np.vdot(y, p) - np.vdot(s.project(y), x)) <= 1e-8 * max(1.0, hs_norm(x))


def test_commutator():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.allclose(commutator(a, b), np.diag([1.0, -1.0]))


def test_commutation_gap_is_the_largest_commutator():
    x = np.diag([1.0, 2.0, 3.0]).astype(complex)
    e01 = np.zeros((3, 3), dtype=complex)
    e01[0, 1] = 1.0
    basis = np.stack([np.eye(3, dtype=complex), e01, 2 * dagger(e01)])
    assert commutation_gap(x, basis) == pytest.approx(2.0)
    assert commutation_gap(x, basis[:1]) == 0.0
    assert commutation_gap(x, basis[:0]) == 0.0


@seed(11)
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_corner_matches_kron_oracle(n, data):
    rank = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v = q[:, :rank]
    corner = Corner(v)
    lift = np.kron(v, np.conj(v))
    compression = np.kron(dagger(v), v.T)
    assert np.allclose(corner.lift_matrix, lift, atol=1e-12)
    assert np.allclose(corner.compression_matrix, compression, atol=1e-12)
    xs = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    ys = rng.standard_normal((3, rank, rank)) + 1j * rng.standard_normal((3, rank, rank))
    flat = xs.reshape(3, -1)
    assert np.allclose(corner.compress(xs).reshape(3, -1), flat @ compression.T, atol=1e-10)
    assert np.allclose(corner.compress_rows(flat).reshape(3, -1), flat @ compression.T, atol=1e-10)
    assert np.allclose(corner.lift(ys).reshape(3, -1), ys.reshape(3, -1) @ lift.T, atol=1e-10)
    # lifting a compression sandwiches by the projection vv*
    p = v @ dagger(v)
    assert np.allclose(corner.projection, p, atol=1e-12)
    assert np.allclose(corner.lift(corner.compress(xs)), p @ xs @ p, atol=1e-10)
    k = rng.standard_normal((rank * rank, rank * rank))
    assert np.allclose(corner.lift_map(k), lift @ k @ compression, atol=1e-10)
    space = orthonormalize(list(ys))
    lifted = corner.lift_space(space)
    assert np.allclose(lifted.flat, space.flat @ lift.T, atol=1e-10)
    assert np.allclose(lifted.flat @ lifted.flat.conj().T, np.eye(space.size), atol=1e-10)


def test_corner_of_zero_projection_is_rejected():
    with pytest.raises(EmptyInput):
        Corner(np.zeros((3, 0), dtype=complex))


def test_identity_rows_pass_a_matrix_through_with_no_n4_array(monkeypatch):
    # M's n^2 identity rows are 1 MB at n = 16, and so is their conjugated copy, which the product
    # route forms; the projection onto M is the density's own entries, copied
    n = 16
    m = full_matrix_algebra(n)
    omega = random_density(n, np.random.default_rng(16))
    tracemalloc.start()
    try:
        kept = omega.restricted_density(m)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 0.1, peak
    assert kept.tobytes() == omega.density.tobytes() and kept is not omega.density
    assert m.space.coords(omega.density).tobytes() == omega.density.ravel().tobytes()
    monkeypatch.setattr(m.space, "unit_columns", None)
    assert np.array_equal(m.space.project(omega.density), kept)
