import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dense_oracle import closure_star_algebra
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
    generate_algebra,
    generate_star_algebra,
    scalar_algebra,
    unitary_conjugate_algebra,
)
from ncrep.errors import DimensionMismatch, EmptyInput, InvariantViolation, NcrepError
from ncrep.instances import haar_unitary
from ncrep.linalg import OperatorSubspace, dagger, hs_norm, orthonormalize, same_subspace
from ncrep.states import sample_projections
from test_acceptance import generator_family


def unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def test_generate_identity_only():
    assert generate_star_algebra([np.eye(3)]).dim == 1


def test_generate_from_e12_fills_m2():
    alg = generate_star_algebra([unit(2, 0, 1)])
    assert alg.dim == 4


def test_generate_from_multiplicity_pattern():
    alg = generate_star_algebra([np.diag([1.0, 2.0, 2.0])])
    assert alg.dim == 2
    want = orthonormalize([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
    assert same_subspace(alg.space, want)


def test_generation_idempotent():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    alg = generate_star_algebra([x])
    again = generate_star_algebra(alg.basis)
    assert same_subspace(alg.space, again.space)


def test_commutant_extremes():
    m3 = full_matrix_algebra(3)
    assert commutant(m3, m3).dim == 1
    assert commutant(scalar_algebra(3), m3).dim == 9


def test_commutant_of_diagonal_is_diagonal():
    d2 = diagonal_algebra(2)
    c = commutant(d2, full_matrix_algebra(2))
    assert same_subspace(c.space, d2.space)


def test_commutant_accepts_plain_matrices():
    c = commutant([np.diag([1.0, 1.0, 2.0])], full_matrix_algebra(3))
    # block sizes 2 and 1: commutant is M_2 + M_1, dimension 5
    assert c.dim == 5


def test_commutant_of_a_jordan_block_is_not_adjoint_closed():
    nil = unit(2, 0, 1)
    c = commutant([nil])
    assert type(c) is Subalgebra
    assert same_subspace(c.space, orthonormalize([np.eye(2), nil]))


def test_commutant_is_deterministic():
    # D (blocks 1 + 2 + 3, rotated by an orthogonal matrix) has 14 basis elements, so
    # the solve opens with the seeded generic pair; an object over D's basis without
    # D's pattern is solved, and D itself has its commutant read off its mask
    n = 6
    u = np.linalg.qr(np.random.default_rng(4).standard_normal((n, n)))[0]
    blocks = [[0], [1, 2], [3, 4, 5]]
    d = unitary_conjugate_algebra(block_diagonal_algebra(n, blocks), u)
    m = full_matrix_algebra(n)
    # a second algebra object over the same basis has its own store, so it is solved again
    first, second = commutant(StarAlgebra(d.space, check=False), m), commutant(StarAlgebra(d.space, check=False), m)
    assert first is not second
    assert first.dim == 3
    assert first.space.flat.tobytes() == second.space.flat.tobytes()
    read, again = commutant(d, m), commutant(unitary_conjugate_algebra(block_diagonal_algebra(n, blocks), u), m)
    assert read.space.flat.tobytes() == again.space.flat.tobytes()
    assert same_subspace(read.space, first.space)


def test_algebra_basis_is_read_only_and_not_shared_with_the_caller():
    n = 3
    # orthonormal rows spanning C(e11 + e22) + C e33, whose commutant in M_3 is M_2 + C
    rows = np.array([np.diag([1.0, 1.0, 0.0]).ravel() / np.sqrt(2), np.diag([0.0, 0.0, 1.0]).ravel()], dtype=complex)
    d = StarAlgebra(OperatorSubspace(n, rows))
    for view in (d.space.flat, d.space.tensor, d.basis[0]):
        with pytest.raises(ValueError):
            view[0, 0] = 5.0
    m = full_matrix_algebra(n)
    c, projections = commutant(d, m), sample_projections(d, 16)
    kept_c, kept_p = c.space.flat.copy(), np.stack(projections)
    rows[:] = np.eye(n * n, dtype=complex)[:2]  # the caller's array, which d copied
    projections.clear()
    assert commutant(d, m) is c
    assert np.array_equal(c.space.flat, kept_c) and c.dim == 5
    assert np.array_equal(np.stack(sample_projections(d, 16)), kept_p)
    assert np.array_equal(d.space.flat[0], np.diag([1.0, 1.0, 0.0]).ravel() / np.sqrt(2))


def test_bicommutant_recovers_generated_algebra():
    # the generation side is the closure-pass oracle: the package's generation is the bicommutant
    rng = np.random.default_rng(9)
    for n in (2, 3, 4, 6):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        alg = closure_star_algebra([x])
        m = full_matrix_algebra(n)
        double = commutant(commutant(alg, m), m)
        assert same_subspace(double.space, alg.space)


def test_contains():
    d2 = diagonal_algebra(2)
    assert d2.contains(np.eye(2))
    assert not d2.contains(unit(2, 0, 1))


def test_ss_density():
    m2 = full_matrix_algebra(2)
    t2 = block_upper_triangular(2, [[0], [1]])
    assert check_ss_density(t2, m2)
    assert not check_ss_density(diagonal_algebra(2), m2)
    assert check_ss_density(m2, m2)


def test_diagonal_part_check():
    m2 = full_matrix_algebra(2)
    t2 = block_upper_triangular(2, [[0], [1]])
    assert diagonal_part_check(t2, diagonal_algebra(2))
    assert diagonal_part_check(m2, m2)
    assert not diagonal_part_check(m2, scalar_algebra(2))


def test_block_constructors():
    alg = block_diagonal_algebra(4, [[0, 1], [2, 3]])
    assert alg.dim == 8
    assert alg.blocks == [[0, 1], [2, 3]]
    tri = block_upper_triangular(4, [[0, 1], [2, 3]])
    assert tri.dim == 12
    assert tri.contains(unit(4, 0, 2))
    assert not tri.contains(unit(4, 2, 0))


def test_partition_validation():
    with pytest.raises(InvariantViolation):
        block_diagonal_algebra(3, [[0, 1]])
    with pytest.raises(InvariantViolation):
        block_upper_triangular(3, [[0, 1], [1, 2]])


def test_star_validation_rejects_non_adjoint_closed():
    with pytest.raises(InvariantViolation, match="adjoint"):
        StarAlgebra(orthonormalize([np.eye(2), unit(2, 0, 1)]))


def test_validation_rejects_non_product_closed():
    with pytest.raises(InvariantViolation, match="product"):
        from_spanning([np.eye(3), unit(3, 0, 1) + unit(3, 1, 0), unit(3, 1, 2) + unit(3, 2, 1)])


def test_validation_requires_identity():
    with pytest.raises(InvariantViolation, match="identity"):
        from_spanning([unit(2, 0, 0)])


def test_is_abelian():
    assert diagonal_algebra(3).is_abelian()
    assert not full_matrix_algebra(2).is_abelian()


def test_unitary_conjugate():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    alg = unitary_conjugate_algebra(diagonal_algebra(3), q)
    assert alg.dim == 3
    assert alg.contains(q @ np.diag([1.0, 2.0, 3.0]) @ dagger(q))


def test_a_set_of_mixed_sizes_is_a_dimension_mismatch():
    mixed = [np.eye(2), np.eye(3)]
    for build in (commutant, generate_star_algebra, generate_algebra):
        with pytest.raises(DimensionMismatch):
            build(mixed)
    with pytest.raises(EmptyInput, match="need at least one generator"):
        generate_star_algebra([])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(2, 6), st.lists(st.floats(-3, 3), min_size=2, max_size=2), st.data())
def test_generation_agrees_with_the_closure_oracle(variant, n, exponents, data):
    # ACCEPTANCE 09's families, each generator rescaled to a Hilbert-Schmidt norm between 1e-3 and 1e3
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gens = [10.0**e * g / hs_norm(g) for e, g in zip(exponents, generator_family(variant, n, rng))]
    got = generate_star_algebra(gens)
    assert isinstance(got, StarAlgebra)
    assert same_subspace(got.space, closure_star_algebra(gens).space)


def gapped_hermitian(gap, seed):
    """u diag(0, gap, 1, 2) u* for a seeded Haar u: two eigenvalues a relative gap apart."""
    u = haar_unitary(4, np.random.default_rng(seed))
    return u @ np.diag([0.0, gap, 1.0, 2.0]) @ dagger(u)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.floats(-5, -1), st.floats(-16, -12)), st.integers(0, 2**32 - 1))
def test_generation_by_one_hermitian_with_a_resolved_or_negligible_gap(exponent, seed):
    # a gap of 1e-5 and above separates the two eigenvalues, one of 1e-12 and below merges them,
    # for the bicommutant and the closure passes alike
    h = gapped_hermitian(10.0**exponent, seed)
    assert same_subspace(generate_star_algebra([h]).space, closure_star_algebra([h]).space)


@settings(max_examples=60, deadline=None)
@given(st.floats(-10, -7), st.integers(0, 2**32 - 1))
def test_generation_by_one_hermitian_near_the_commutant_cutoff(exponent, seed):
    # with the gap between 1e-10 and 1e-7 the commutant solve sits near its rank cutoff: the
    # bicommutant is abelian and holds h, or a typed error says that it could not be certified.
    # The closure passes are recorded, not asserted: they can return all of M_4
    h = gapped_hermitian(10.0**exponent, seed)
    try:
        got = generate_star_algebra([h])
    except NcrepError as err:
        event(f"bicommutant: {type(err).__name__}")
    else:
        event(f"bicommutant: dim {got.dim}")
        assert got.is_abelian() and got.contains(h)
    try:
        event(f"closure passes: dim {closure_star_algebra([h]).dim}")
    except NcrepError as err:
        event(f"closure passes: {type(err).__name__}")
