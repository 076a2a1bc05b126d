import numpy as np
import pytest

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
    generate_star_algebra,
    scalar_algebra,
    unitary_conjugate_algebra,
)
from ncrep.errors import InvariantViolation
from ncrep.linalg import OperatorSubspace, dagger, orthonormalize, same_subspace
from ncrep.states import sample_projections


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
    # the solve opens with the seeded generic pair
    n = 6
    u = np.linalg.qr(np.random.default_rng(4).standard_normal((n, n)))[0]
    d = unitary_conjugate_algebra(block_diagonal_algebra(n, [[0], [1, 2], [3, 4, 5]]), u)
    m = full_matrix_algebra(n)
    # a second algebra object over the same basis has its own store, so it is solved again
    first, second = commutant(d, m), commutant(StarAlgebra(d.space, check=False), m)
    assert first is not second
    assert first.dim == 3
    assert first.space.flat.tobytes() == second.space.flat.tobytes()


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
    rng = np.random.default_rng(9)
    for n in (2, 3, 4, 6):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        alg = generate_star_algebra([x])
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
