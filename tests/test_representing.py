import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from dense_oracle import projector_matrix
from ncrep.algebras import (
    diagonal_algebra,
    from_spanning,
    full_matrix_algebra,
    scalar_algebra,
    unitary_conjugate_algebra,
)
from ncrep.errors import (
    BadPartition,
    GSingular,
    InvariantViolation,
    NotAbelian,
    NotAnExtension,
    NotCentral,
    NotDense,
    NotFaithful,
    NotTracial,
)
from ncrep.expectations import preserving_expectation
from ncrep.linalg import dagger, hs_norm, sandwich_matrix
from ncrep.representing import (
    DCharacter,
    _invertible_average,
    _matched_density,
    _polar_factors,
    _projected_factor,
    extension_via_ss_density,
    make_block_character,
    mth_check,
    representing_expectation_commutative,
    representing_expectation_state,
    representing_expectation_tracial,
)
from ncrep.states import PositiveFunctional


def unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated_instance(n, blocks, rng):
    """A block character moved off the coordinate axes by a random unitary."""
    a, d, phi = make_block_character(n, blocks)
    u = haar_unitary(n, rng)
    s = np.kron(u, np.conj(u))
    a_c = unitary_conjugate_algebra(a, u)
    d_c = unitary_conjugate_algebra(d, u)
    phi_c = DCharacter(s @ phi.map_matrix @ dagger(s) @ projector_matrix(a_c.space), a_c, d_c)
    return a_c, d_c, phi_c


def scalar_character(entry):
    """On T_2: a -> a_entry * I, the two multiplicative functionals of the flag."""
    a, _, _ = make_block_character(2, [[0], [1]])
    d = scalar_algebra(2)
    k = np.zeros((4, 4), dtype=complex)
    pos = 0 if entry == (0, 0) else 3
    k[0, pos] = 1.0
    k[3, pos] = 1.0
    return a, d, DCharacter(k @ projector_matrix(a.space), a, d)


def test_block_character_shape():
    a, d, phi = make_block_character(4, [[0, 1], [2], [3]])
    assert a.dim == 11 and d.dim == 6
    assert phi.kernel.size == 5  # strictly upper block entries
    x = np.arange(16, dtype=complex).reshape(4, 4)
    xa = a.project(x)
    want = np.zeros((4, 4), dtype=complex)
    want[:2, :2] = xa[:2, :2]
    want[2, 2] = xa[2, 2]
    want[3, 3] = xa[3, 3]
    assert hs_norm(phi(xa) - want) < 1e-12
    with pytest.raises(BadPartition):
        make_block_character(3, [[0, 1]])
    with pytest.raises(BadPartition):
        make_block_character(3, [[0, 1], [1, 2]])


def test_single_block_character_is_the_identity():
    a, d, phi = make_block_character(3, [[0, 1, 2]])
    assert a.dim == d.dim == 9
    assert phi.kernel.size == 0
    x = np.array([[1, 2, 0], [0, 1, 1j], [4, 0, 2]], dtype=complex)
    assert hs_norm(phi(x) - x) < 1e-12


def test_character_validation_rejects_non_multiplicative():
    a, d, _ = make_block_character(2, [[0], [1]])
    # transpose-within-A is linear and unital but not multiplicative
    k = np.zeros((4, 4), dtype=complex)
    k[0, 0] = k[3, 3] = 1.0
    k[2, 1] = 1.0  # sends E01 to E10, which also leaves span(D)
    with pytest.raises(InvariantViolation):
        DCharacter(k @ projector_matrix(a.space), a, d)


def test_character_validation_names_the_broken_invariant():
    a, _, phi = make_block_character(2, [[0], [1]])
    # span{I, X} holds (I + X)/2, which is not upper triangular
    flip = from_spanning([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    with pytest.raises(InvariantViolation, match="range: D is not inside A"):
        DCharacter(phi.map_matrix, a, flip)
    # E01 comes before E10 in the basis of M_2, and Phi kills it
    with pytest.raises(InvariantViolation, match="fixes D"):
        DCharacter(phi.map_matrix, a, full_matrix_algebra(2))
    m2, _, _ = make_block_character(2, [[0, 1]])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(InvariantViolation, match="fixes D"):
        DCharacter(sandwich_matrix(swap, swap), m2, diagonal_algebra(2))


def test_tracial_frozen_diagonal_compression():
    m = full_matrix_algebra(2)
    tau = PositiveFunctional.tracial(2)
    a, d, phi = make_block_character(2, [[0], [1]])
    psi, rho = representing_expectation_tracial(m, tau, d, a, phi)
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert hs_norm(psi(x) - np.diag([1.0, 4.0])) < 1e-10
    assert hs_norm(rho.density - np.eye(2) / 2) < 1e-10


def test_tracial_frozen_scalar_range():
    m = full_matrix_algebra(2)
    tau = PositiveFunctional.tracial(2)
    a, d, phi = scalar_character((0, 0))
    psi, rho = representing_expectation_tracial(m, tau, d, a, phi)
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert hs_norm(psi(x) - np.eye(2)) < 1e-10
    # the representing state is evaluation at the (0,0) entry
    assert hs_norm(rho.density - np.diag([1.0, 0.0])) < 1e-10
    for j in phi.kernel.basis:
        assert abs(rho(j)) < 1e-10


def test_tracial_identity_case():
    m = full_matrix_algebra(3)
    tau = PositiveFunctional.tracial(3)
    a, d, phi = make_block_character(3, [[0, 1, 2]])
    psi, rho = representing_expectation_tracial(m, tau, d, a, phi)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert hs_norm(psi(x) - x) < 1e-10
    assert hs_norm(rho.density - np.eye(3) / 3) < 1e-10


def test_state_frozen_scalar_range():
    m = full_matrix_algebra(2)
    omega = PositiveFunctional(np.diag([0.7, 0.3]).astype(complex))
    a, d, phi = scalar_character((1, 1))
    psi, rho = representing_expectation_state(m, omega, d, a, phi)
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert hs_norm(psi(x) - 4.0 * np.eye(2)) < 1e-10
    assert hs_norm(rho.density - np.diag([0.0, 1.0])) < 1e-10


def test_state_a_equals_d_reduces_to_preservation():
    # with A = D the pipeline manufactures its own representing state; for
    # D = CI that state is the normalized trace whatever omega was
    m = full_matrix_algebra(2)
    omega = PositiveFunctional(np.diag([0.7, 0.3]).astype(complex))
    d = scalar_algebra(2)
    a = from_spanning([np.eye(2)], star=False)
    phi = DCharacter(projector_matrix(a.space), a, d)
    psi, rho = representing_expectation_state(m, omega, d, a, phi)
    assert hs_norm(rho.density - np.eye(2) / 2) < 1e-10
    again = preserving_expectation(rho, d, m)
    assert np.linalg.norm(psi.map_matrix - again.map_matrix) < 1e-10
    x = np.array([[1.0, 5.0], [0.0, 3.0]], dtype=complex)
    assert hs_norm(psi(x) - 2.0 * np.eye(2)) < 1e-10


def test_state_gates():
    m = full_matrix_algebra(2)
    a, d, phi = make_block_character(2, [[0], [1]])
    skew = PositiveFunctional(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
    with pytest.raises(NotCentral):
        representing_expectation_state(m, skew, d, a, phi)
    singular = PositiveFunctional(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(NotFaithful):
        representing_expectation_state(m, singular, d, a, phi)


def test_tracial_gates():
    m = full_matrix_algebra(2)
    a, d, phi = make_block_character(2, [[0], [1]])
    with pytest.raises(NotTracial):
        representing_expectation_tracial(m, PositiveFunctional(np.diag([0.7, 0.3]).astype(complex)), d, a, phi)
    sub = from_spanning([np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(NotFaithful):
        representing_expectation_tracial(sub, PositiveFunctional(np.diag([1.0, 0.0]).astype(complex)), d, a, phi)


def test_pipelines_agree_on_conjugated_blocks():
    rng = np.random.default_rng(11)
    for n, blocks in [(3, [[0], [1, 2]]), (4, [[0, 1], [2, 3]]), (5, [[0, 1], [2], [3, 4]])]:
        a, d, phi = conjugated_instance(n, blocks, rng)
        m = full_matrix_algebra(n)
        tau = PositiveFunctional.tracial(n)
        psi_t, rho_t = representing_expectation_tracial(m, tau, d, a, phi)
        psi_s, rho_s = representing_expectation_state(m, tau, d, a, phi)
        scale = max(1.0, np.linalg.norm(psi_t.map_matrix))
        assert np.linalg.norm(psi_t.map_matrix - psi_s.map_matrix) < 1e-7 * scale
        assert hs_norm(rho_t.density - rho_s.density) < 1e-8


def test_representation_contract_on_random_instances():
    rng = np.random.default_rng(23)
    for n, blocks in [(4, [[0], [1, 2], [3]]), (6, [[0, 1, 2], [3, 4], [5]])]:
        a, d, phi = conjugated_instance(n, blocks, rng)
        m = full_matrix_algebra(n)
        tau = PositiveFunctional.tracial(n)
        psi, rho = representing_expectation_tracial(m, tau, d, a, phi)
        # rho is preserved and represents tau∘phi on A
        for x in m.basis:
            assert abs(rho(psi(x)) - rho(x)) < 1e-9
        for x in a.basis:
            assert abs(rho(x) - tau(phi(x))) < 1e-9
        for j in phi.kernel.basis:
            assert abs(rho(j)) < 1e-8
        # an independently assembled rho-preserving expectation coincides:
        # same algebra, different spanning set, different Gram system
        mix = np.triu(np.ones((d.dim, d.dim)))
        d2 = from_spanning([sum(c * b for c, b in zip(row, d.basis)) for row in mix])
        psi2 = preserving_expectation(rho, d2, m)
        assert np.linalg.norm(psi.map_matrix - psi2.map_matrix) < 1e-7


def test_perturbed_matching_leaves_the_expectation_alone():
    rng = np.random.default_rng(5)
    a, d, phi = conjugated_instance(4, [[0, 1], [2], [3]], rng)
    m = full_matrix_algebra(4)
    tau = PositiveFunctional.tracial(4)
    psi, _ = representing_expectation_tracial(m, tau, d, a, phi)
    for amount, s in [(0.3, 1), (1.0, 2)]:
        psi_p, _ = representing_expectation_tracial(m, tau, d, a, phi, perturb_r=amount, rng_seed=s)
        assert np.linalg.norm(psi.map_matrix - psi_p.map_matrix) < 1e-7
    psi_s, _ = representing_expectation_state(m, tau, d, a, phi, perturb_r=0.7, rng_seed=3)
    assert np.linalg.norm(psi.map_matrix - psi_s.map_matrix) < 1e-7


def test_weighted_tracial_reference_matches_state_route():
    # M = M_2 ⊕ M_2 inside M_4 carries tracial states with non-scalar density;
    # A is upper triangular in the first summand, full in the second
    n = 4
    m = from_spanning([unit(n, i, j) for i in range(2) for j in range(2)]
                      + [unit(n, i, j) for i in (2, 3) for j in (2, 3)])
    a = from_spanning([unit(n, 0, 0), unit(n, 0, 1), unit(n, 1, 1)]
                      + [unit(n, i, j) for i in (2, 3) for j in (2, 3)], star=False)
    d = from_spanning([unit(n, 0, 0), unit(n, 1, 1)]
                      + [unit(n, i, j) for i in (2, 3) for j in (2, 3)])
    k = np.zeros((n * n, n * n), dtype=complex)
    for p in (np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 0, 0]), np.diag([0, 0, 1.0, 1.0])):
        k += np.kron(p, p)
    phi = DCharacter(k @ projector_matrix(a.space), a, d)
    assert phi.kernel.size == 1
    tau = PositiveFunctional(np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex))
    psi_t, rho_t = representing_expectation_tracial(m, tau, d, a, phi)
    psi_s, rho_s = representing_expectation_state(m, tau, d, a, phi)
    assert np.linalg.norm(psi_t.map_matrix - psi_s.map_matrix) < 1e-7
    assert hs_norm(rho_t.density - rho_s.density) < 1e-8
    x = m.project(np.arange(16, dtype=complex).reshape(4, 4))
    want = x.copy()
    want[0, 1] = want[1, 0] = 0
    assert hs_norm(psi_t(x) - want) < 1e-8


def test_matching_stays_inside_m_for_the_kernel_inequality():
    # the lemma behind g > 0, checked on the pipeline's own ingredients:
    # tau(f)^2 <= tau(a*a) tau(f^2 g) for f in D_+
    rng = np.random.default_rng(3)
    a, d, phi = conjugated_instance(4, [[0, 1], [2, 3]], rng)
    m = full_matrix_algebra(4)
    tau = PositiveFunctional.tracial(4)
    k = tau.restricted_density(m)
    values = [tau(phi(x)) for x in a.basis]
    r = _matched_density(a.space, values, m, 0.0, 0, weight=k)
    assert m.contains(r)
    a_mat, b_mat = _polar_factors(r)
    c = _projected_factor(a, phi.kernel, a_mat, b_mat, weight=k)
    e_d = preserving_expectation(tau, d, m)
    g = e_d(c @ dagger(c))
    cap = tau(dagger(a_mat) @ a_mat)
    for _ in range(24):
        y = sum(co * b for co, b in zip(rng.standard_normal(d.dim) + 1j * rng.standard_normal(d.dim), d.basis))
        f = dagger(y) @ y
        assert tau(f).real ** 2 <= cap.real * tau(f @ f @ g).real + 1e-9


def test_gsingular_gate_reports_conditioning():
    with pytest.raises(GSingular):
        _invertible_average(np.diag([1.0, 0.0]).astype(complex), "g")
    with pytest.raises(GSingular):
        _invertible_average(np.diag([1.0, 1e-14]).astype(complex), "g")
    _invertible_average(np.diag([1.0, 1e-10]).astype(complex), "g")


def test_commutative_point_mass():
    m = diagonal_algebra(3)
    d = scalar_algebra(3)
    k = np.zeros((9, 9), dtype=complex)
    for t in (0, 4, 8):
        k[t, 0] = 1.0
    phi = DCharacter(k @ projector_matrix(m.space), m, d)
    sigma = PositiveFunctional.tracial(3)
    psi, rho = representing_expectation_commutative(m, sigma, d, m, phi)
    assert hs_norm(rho.density - np.diag([1.0, 0, 0])) < 1e-10
    assert hs_norm(psi(np.diag([5.0, 6.0, 7.0])) - 5.0 * np.eye(3)) < 1e-10
    with pytest.raises(NotAbelian):
        representing_expectation_commutative(full_matrix_algebra(3), sigma, d, m, phi)


def test_commutative_product_of_point_masses():
    # evaluation at a product point factors through the two coordinates
    m = diagonal_algebra(4)
    d = scalar_algebra(4)
    k = np.zeros((16, 16), dtype=complex)
    for t in (0, 5, 10, 15):
        k[t, 0] = 1.0
    phi = DCharacter(k @ projector_matrix(m.space), m, d)
    sigma = PositiveFunctional.tracial(4)
    psi, rho = representing_expectation_commutative(m, sigma, d, m, phi)
    point = np.zeros((4, 4), dtype=complex)
    point[0, 0] = 1.0
    assert hs_norm(rho.density - point) < 1e-10
    marginal = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    assert hs_norm(rho.density - marginal) < 1e-10


def test_commutative_a_equals_d():
    m = diagonal_algebra(3)
    d = from_spanning([np.eye(3), np.diag([1.0, 0, 0])])
    a = from_spanning([np.eye(3), np.diag([1.0, 0, 0])], star=False)
    phi = DCharacter(projector_matrix(a.space), a, d)
    sigma = PositiveFunctional(np.diag([0.5, 0.25, 0.25]).astype(complex))
    psi, rho = representing_expectation_commutative(m, sigma, d, a, phi)
    for x in a.basis:
        assert hs_norm(psi(x) - x) < 1e-9
        assert abs(rho(x) - sigma(x)) < 1e-9
    # outputs stay in D
    assert d.contains(psi(np.diag([1.0, 2.0, 5.0])))


def test_extension_reproduces_the_pipeline():
    m = full_matrix_algebra(2)
    tau = PositiveFunctional.tracial(2)
    a, d, phi = make_block_character(2, [[0], [1]])
    psi, rho = representing_expectation_tracial(m, tau, d, a, phi)
    e = extension_via_ss_density(m, tau, d, a, phi, rho)
    assert np.linalg.norm(e.map_matrix - psi.map_matrix) < 1e-8


def test_extension_gates():
    m = full_matrix_algebra(2)
    tau = PositiveFunctional.tracial(2)
    a, d, phi = make_block_character(2, [[0], [1]])
    # A = D is not dense: A + A* is two-dimensional
    d_as_a = from_spanning(list(d.basis), star=False)
    phi_id = DCharacter(projector_matrix(d_as_a.space), d_as_a, d)
    with pytest.raises(NotDense):
        extension_via_ss_density(m, tau, d, d_as_a, phi_id, tau)
    with pytest.raises(NotAnExtension):
        extension_via_ss_density(m, tau, d, a, phi, PositiveFunctional(np.diag([0.8, 0.2]).astype(complex)))
    with pytest.raises(NotFaithful):
        extension_via_ss_density(m, PositiveFunctional(np.diag([1.0, 0.0]).astype(complex)), d, a, phi, tau)
    full = from_spanning([e.reshape(2, 2) for e in np.eye(4)], star=False)
    phi_full = DCharacter(projector_matrix(full.space), full, full_matrix_algebra(2))
    with pytest.raises(NotTracial):
        extension_via_ss_density(m, PositiveFunctional(np.diag([0.7, 0.3]).astype(complex)),
                                 full_matrix_algebra(2), full, phi_full, tau)


def test_extension_of_the_identity_character():
    # A = M: the only extension of omega∘id is omega itself and Psi is the identity
    m = full_matrix_algebra(2)
    tau = PositiveFunctional.tracial(2)
    a = from_spanning([e.reshape(2, 2) for e in np.eye(4)], star=False)
    phi = DCharacter(projector_matrix(a.space), a, full_matrix_algebra(2))
    e = extension_via_ss_density(m, tau, full_matrix_algebra(2), a, phi, tau)
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert hs_norm(e(x) - x) < 1e-10


def test_mth_uniform_mass_is_the_equality_case():
    for k in (1, 3, 7):
        assert mth_check(np.full(k, 1.0 / k), np.ones(k))


def test_mth_zero_density_on_support_fails():
    assert not mth_check(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    # a zero off the support does not matter
    assert mth_check(np.array([1.0, 0.0]), np.array([1.0, 0.0]))


def test_mth_agrees_with_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(120):
        k = int(rng.integers(1, 7))
        mu = rng.random(k) * (rng.random(k) > 0.3)
        mu_sum = mu.sum()
        if mu_sum > 0:
            mu = mu / mu_sum * rng.uniform(0.2, 1.5)
        g = rng.random(k) * (rng.random(k) > 0.15) * 3.0
        verdict = mth_check(mu, g)
        best = 0.0
        supp = mu > 0
        if supp.any():
            if np.all(g[supp] > 0):
                f = np.where(supp, 1.0 / np.where(g > 0, g, 1.0), 0.0)
                best = float(np.sum(f * mu)) ** 2 / float(np.sum(f * f * g * mu))
            else:
                best = np.inf
            for _ in range(300):
                f = rng.random(k)
                num = float(np.sum(f * mu)) ** 2
                den = float(np.sum(f * f * g * mu))
                best = max(best, num / den if den > 0 else (np.inf if num > 0 else 0.0))
        assert verdict == (best <= 1.0 + 1e-9)


@seed(6)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=6),
       st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=6))
@example(mu=[5.2436670009737986e-226], g=[1.857044079974625e-176])  # the probes' products underflowed to 0 / 0
def test_mth_closed_criterion(mu, g):
    size = min(len(mu), len(g))
    mu = np.asarray(mu[:size])
    g = np.asarray(g[:size])
    verdict = mth_check(mu, g)
    supp = mu > 0
    with np.errstate(over="ignore", divide="ignore"):
        want = bool(np.all(g[supp] > 0)) and (not supp.any() or float(np.sum(mu[supp] / g[supp])) <= 1.0 + 1e-12)
    assert verdict == want
