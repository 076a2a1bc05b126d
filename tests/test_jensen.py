import numpy as np
import pytest

from dense_oracle import projector_matrix
from ncrep.algebras import from_spanning, full_matrix_algebra, unitary_conjugate_algebra
from ncrep.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotBoundedBelow,
    NotInvertible,
    NotTracial,
    NotTriangularType,
)
from ncrep.jensen import (
    geometric_mean,
    holder_tracial,
    jensen_check,
    jensen_measure_suite,
    logmodular_witness,
)
from ncrep.linalg import dagger, hs_norm, matpow, psd_sqrt
from ncrep.representing import make_block_character, representing_expectation_tracial
from ncrep.states import PositiveFunctional


def random_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_state(n, rng):
    x = random_matrix(n, rng)
    rho = x @ dagger(x) + 1e-3 * np.eye(n)
    return PositiveFunctional(rho / np.trace(rho).real)


def tracial_pipeline(n, blocks):
    a, d, phi = make_block_character(n, blocks)
    m = full_matrix_algebra(n)
    tau = PositiveFunctional.tracial(n)
    psi, _ = representing_expectation_tracial(m, tau, d, a, phi)
    return tau, a, d, phi, psi


def test_geometric_mean_frozen_values():
    tau = PositiveFunctional.tracial(2)
    assert abs(geometric_mean(tau, np.diag([1.0, 4.0]).astype(complex)).value - 2.0) < 1e-9
    assert abs(geometric_mean(tau, np.eye(2, dtype=complex)).value - 1.0) < 1e-12
    # for triangular a and the normalized trace the mean is |det a|^(1/n)
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        taun = PositiveFunctional.tracial(n)
        a = np.triu(random_matrix(n, rng)) + 2.0 * np.eye(n)
        want = abs(np.linalg.det(a)) ** (1.0 / n)
        assert abs(geometric_mean(taun, a).value - want) < 1e-8 * want


def test_geometric_mean_sequence_decreases_to_the_value():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        omega = random_state(n, rng)
        a = random_matrix(n, rng) + 3.0 * np.eye(n)
        report = geometric_mean(omega, a)
        seq = report.power_sequence
        assert len(seq) == 25
        slack = 1e-9 * max(1.0, seq[0])
        assert all(seq[i + 1] <= seq[i] + slack for i in range(len(seq) - 1))
        assert abs(seq[-1] - report.value) <= 1e-6 * report.value


def test_geometric_mean_wide_spectrum_needs_more_powers():
    # condition number 1e6: the tail converges once the sequence is long enough
    tau = PositiveFunctional.tracial(2)
    report = geometric_mean(tau, np.diag([1e-3, 1e3]).astype(complex), n_powers=28)
    assert abs(report.value - 1.0) < 1e-9
    assert abs(report.power_sequence[-1] - 1.0) < 1e-6


def test_geometric_mean_gates():
    tau = PositiveFunctional.tracial(2)
    with pytest.raises(NotInvertible):
        geometric_mean(tau, np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    not_a_state = PositiveFunctional(np.diag([1.0, 1.0]).astype(complex))
    with pytest.raises(InvariantViolation):
        geometric_mean(not_a_state, np.eye(2, dtype=complex))


def test_agm_lemma_for_commuting_positives():
    # b + b^{-1} a >= 2 a^{1/2} when a, b > 0 commute
    rng = np.random.default_rng(21)
    for n in (2, 4):
        x = random_matrix(n, rng)
        u = np.linalg.qr(x)[0]
        p = rng.uniform(0.2, 3.0, n)
        q = rng.uniform(0.2, 3.0, n)
        a = u @ np.diag(p).astype(complex) @ dagger(u)
        b = u @ np.diag(q).astype(complex) @ dagger(u)
        gap = b + np.linalg.inv(b) @ a - 2.0 * psd_sqrt(a)
        assert np.linalg.eigvalsh((gap + dagger(gap)) / 2)[0] > -1e-9


def test_holder_battery():
    rng = np.random.default_rng(33)
    tau = PositiveFunctional.tracial(3)
    for _ in range(40):
        a = random_matrix(3, rng)
        b = random_matrix(3, rng)
        assert holder_tracial(tau, a, b, 1, 2, 2)
        assert holder_tracial(tau, a, b, 0.5, 1, 1)
        assert holder_tracial(tau, a, b, 2.0 / 3.0, 1, 2)
        assert holder_tracial(tau, a, b, 2, np.inf, 2)
    assert holder_tracial(tau, np.eye(3), np.eye(3), 1, 2, 2)


def test_holder_on_a_weighted_tracial_block_algebra():
    # M_2 (+) M_2 carries a tracial state with non-scalar density
    def unit(i, j):
        e = np.zeros((4, 4), dtype=complex)
        e[i, j] = 1.0
        return e

    m = from_spanning([unit(i, j) for i in range(2) for j in range(2)]
                      + [unit(i, j) for i in (2, 3) for j in (2, 3)])
    tau = PositiveFunctional(np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex))
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = sum(c * x for c, x in zip(rng.standard_normal(8) + 1j * rng.standard_normal(8), m.basis))
        b = sum(c * x for c, x in zip(rng.standard_normal(8) + 1j * rng.standard_normal(8), m.basis))
        assert holder_tracial(tau, a, b, 1, 2, 2, m=m)


def test_holder_tracial_symmetry_all_exponents():
    rng = np.random.default_rng(2)
    tau = PositiveFunctional.tracial(4)
    for p in (0.3, 0.5, 1.0, 2.0, 3.0):
        for _ in range(8):
            a = random_matrix(4, rng)
            left = tau(matpow(dagger(a) @ a, p / 2)).real
            right = tau(matpow(a @ dagger(a), p / 2)).real
            assert abs(left - right) < 1e-9 * max(1.0, abs(left))
            # the same identity is asserted inside the checker
            assert holder_tracial(tau, a, np.eye(4), p, p, np.inf)


def test_holder_gates():
    rng = np.random.default_rng(5)
    a, b = random_matrix(2, rng), random_matrix(2, rng)
    skew = PositiveFunctional(np.diag([0.7, 0.3]).astype(complex))
    with pytest.raises(NotTracial):
        holder_tracial(skew, a, b, 1, 2, 2)
    tau = PositiveFunctional.tracial(2)
    with pytest.raises(InvariantViolation):
        holder_tracial(tau, a, b, 1, 2, 3)
    with pytest.raises(InvariantViolation):
        holder_tracial(tau, a, b, -1, 2, 2)


def test_logmodular_witness_frozen_two_by_two():
    a_alg, _, _ = make_block_character(2, [[0], [1]])
    assert hs_norm(logmodular_witness(a_alg, np.eye(2, dtype=complex)) - np.eye(2)) < 1e-12
    b = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    w = logmodular_witness(a_alg, b)
    want = np.array([[np.sqrt(2.0), 1.0 / np.sqrt(2.0)], [0.0, np.sqrt(1.5)]], dtype=complex)
    assert hs_norm(w - want) < 1e-10
    assert hs_norm(dagger(w) @ w - b) < 1e-12


def test_logmodular_witness_blocked_and_permuted():
    rng = np.random.default_rng(14)
    for blocks in ([[0, 1], [2]], [[2], [0, 1]], [[1], [0, 2]]):
        a_alg, _, _ = make_block_character(3, blocks)
        x = random_matrix(3, rng)
        b = x @ dagger(x) + 0.5 * np.eye(3)
        w = logmodular_witness(a_alg, b)
        assert a_alg.contains(w)
        assert hs_norm(dagger(w) @ w - b) < 1e-9 * hs_norm(b)
        assert np.linalg.svd(w, compute_uv=False)[-1] > 1e-6


def test_logmodular_witness_gates():
    a_alg, _, _ = make_block_character(2, [[0], [1]])
    with pytest.raises(NotBoundedBelow):
        logmodular_witness(a_alg, np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(NotBoundedBelow):
        logmodular_witness(a_alg, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(DimensionMismatch):
        logmodular_witness(a_alg, np.eye(3, dtype=complex))
    plain = full_matrix_algebra(2)
    with pytest.raises(NotTriangularType):
        logmodular_witness(plain, np.eye(2, dtype=complex))


def test_jensen_check_frozen_triangular():
    tau, a_alg, d, phi, psi = tracial_pipeline(2, [[0], [1]])
    report = jensen_check(tau, phi, psi, np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex))
    assert abs(report.delta_a - np.sqrt(2.0)) < 1e-9
    assert abs(report.delta_image - np.sqrt(2.0)) < 1e-9
    assert report.inequality_ok and report.equality_ok
    assert report.relative_gap < 1e-10
    # unit determinant on both sides
    report = jensen_check(tau, phi, psi, np.array([[1.0, 5.0], [0.0, 1.0]], dtype=complex))
    assert abs(report.delta_a - 1.0) < 1e-9 and abs(report.delta_image - 1.0) < 1e-9
    assert report.equality_ok


def test_jensen_check_element_of_d_is_trivial():
    tau, a_alg, d, phi, psi = tracial_pipeline(3, [[0, 1], [2]])
    x = np.zeros((3, 3), dtype=complex)
    x[:2, :2] = np.array([[2.0, 1.0], [0.5, 2.0]])
    x[2, 2] = 3.0
    report = jensen_check(tau, phi, psi, x)
    assert hs_norm(phi(x) - x) < 1e-12
    assert report.relative_gap < 1e-12 and report.equality_ok


def test_jensen_check_gates():
    tau, a_alg, d, phi, psi = tracial_pipeline(2, [[0], [1]])
    with pytest.raises(NotInvertible):
        jensen_check(tau, phi, psi, np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(InvariantViolation):
        jensen_check(tau, phi, psi, np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex))
    moved = PositiveFunctional(np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
    with pytest.raises(InvariantViolation):
        jensen_check(moved, phi, psi, np.eye(2, dtype=complex))
    # omega not tracial on a noncommutative range: A = D = M makes the
    # pipeline expectation the identity, which preserves any state
    tau4, a4, d4, phi4, psi4 = tracial_pipeline(2, [[0, 1]])
    skew = PositiveFunctional(np.diag([0.7, 0.3]).astype(complex))
    with pytest.raises(NotTracial):
        jensen_check(skew, phi4, psi4, np.eye(2, dtype=complex))


def test_jensen_equality_on_conjugated_triangular_instances():
    # unitary conjugation preserves the equality; the domain keeps no block tag,
    # so pass the logmodularity knowledge explicitly
    rng = np.random.default_rng(40)
    a, d, phi = make_block_character(4, [[0, 1], [2, 3]])
    z = random_matrix(4, rng)
    u = np.linalg.qr(z)[0]
    s = np.kron(u, np.conj(u))
    from ncrep.representing import DCharacter

    a_c = unitary_conjugate_algebra(a, u)
    d_c = unitary_conjugate_algebra(d, u)
    phi_c = DCharacter(s @ phi.map_matrix @ dagger(s) @ projector_matrix(a_c.space), a_c, d_c)
    m = full_matrix_algebra(4)
    tau = PositiveFunctional.tracial(4)
    psi, _ = representing_expectation_tracial(m, tau, d_c, a_c, phi_c)
    for _ in range(5):
        coeff = rng.standard_normal(a_c.dim) + 1j * rng.standard_normal(a_c.dim)
        x = sum(c * mat for c, mat in zip(coeff, a_c.basis))
        elem = x + (1.0 + np.linalg.norm(x, 2)) * np.eye(4)
        report = jensen_check(tau, phi_c, psi, elem, witnessed=True)
        assert report.equality_ok


def test_jensen_suite_triangular_all_pass():
    tau, a_alg, d, phi, psi = tracial_pipeline(2, [[0], [1]])
    summary = jensen_measure_suite(tau, phi, psi, trials=100, rng_seed=3)
    assert summary.ok
    assert summary.trials == 100 and summary.equality_passes == 100
    assert summary.degenerate_trials == 10 and summary.degenerate_passes == 10
    assert summary.max_relative_gap < 1e-10


def test_jensen_suite_degenerate_domain():
    # A = D = M: the character is the identity and everything is trivial
    tau, a_alg, d, phi, psi = tracial_pipeline(2, [[0, 1]])
    summary = jensen_measure_suite(tau, phi, psi, trials=20, rng_seed=5)
    assert summary.ok and summary.equality_passes == 20
    assert summary.max_relative_gap < 1e-12
