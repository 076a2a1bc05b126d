import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dense_oracle import projector_matrix
from ncrep.algebras import (
    block_diagonal_algebra,
    block_upper_triangular,
    diagonal_algebra,
    from_spanning,
    full_matrix_algebra,
    scalar_algebra,
    unitary_conjugate_algebra,
)
from ncrep import expectations
from ncrep.errors import (
    DensityDoesNotCommute,
    DimensionMismatch,
    DoesNotCommute,
    EmptyInput,
    GramSingular,
    InvariantViolation,
    NotAnExtension,
    NotCentral,
    NotDCentral,
    NotFaithful,
    NotNormalized,
    NotPositiveDefinite,
)
from ncrep.expectations import (
    ConditionalExpectation,
    average_to_central,
    choi_matrix,
    commutes_with_modular,
    existence_diagnosis,
    expectation_from_density,
    expectation_to_density,
    preserving_expectation,
    support_ideal_expectation,
    support_of_map,
)
from ncrep.instances import haar_unitary
from ncrep.linalg import commutator, dagger, hs_norm, sandwich_matrix
from ncrep.representing import DCharacter
from ncrep.states import PositiveFunctional, is_D_central, locally_central_check

E33 = np.diag([0.0, 0.0, 1.0]).astype(complex)


def random_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def pinch(x, blocks):
    """Block-diagonal truncation, the closed form of the expectation onto
    a block algebra under any functional that is scalar on each block."""
    out = np.zeros_like(x, dtype=complex)
    for block in blocks:
        p = np.zeros(x.shape[0])
        p[list(block)] = 1.0
        out += p[:, None] * x * p[None, :]
    return out


def phase_average(x, blocks):
    """Exact average over the finite cyclic group of block-phase unitaries.

    Character orthogonality kills every off-block entry, so this is an
    averaging construction of the same map built here by a linear solve.
    """
    n = x.shape[0]
    m = len(blocks)
    phase = np.zeros(n)
    for b, block in enumerate(blocks):
        phase[list(block)] = b
    acc = np.zeros_like(x, dtype=complex)
    for k in range(m):
        u = np.diag(np.exp(2j * np.pi * k * phase / m))
        acc += u @ x @ dagger(u)
    return acc / m


def doubled_algebra():
    """Two copies of M2 down the diagonal of M4, x -> x (+) x."""
    mats = []
    for i in range(2):
        for j in range(2):
            b = np.zeros((4, 4), dtype=complex)
            b[i, j] = 1.0
            b[2 + i, 2 + j] = 1.0
            mats.append(b)
    return from_spanning(mats)


def test_tracial_pinching():
    rng = np.random.default_rng(0)
    for n in (3, 4):
        e = preserving_expectation(PositiveFunctional.tracial(n), diagonal_algebra(n), full_matrix_algebra(n))
        x = random_matrix(n, rng)
        assert hs_norm(e(x) - np.diag(np.diag(x))) <= 1e-10
        blocks = [[i] for i in range(n)]
        assert hs_norm(e(x) - phase_average(x, blocks)) <= 1e-10
        assert hs_norm(e(np.eye(n)) - np.eye(n)) <= 1e-10
        assert hs_norm(e.support - np.eye(n)) <= 1e-8


def test_scalar_range_is_the_functional():
    om = PositiveFunctional(np.diag([0.5, 0.3, 0.2]).astype(complex))
    e = preserving_expectation(om, scalar_algebra(3), full_matrix_algebra(3))
    x = np.arange(9, dtype=complex).reshape(3, 3)
    # omega(x) = 0.5*0 + 0.3*4 + 0.2*8 = 2.8
    assert hs_norm(e(x) - 2.8 * np.eye(3)) <= 1e-9


def test_block_expectation_matches_averaging():
    blocks = [[0, 1], [2, 3]]
    d = block_diagonal_algebra(4, blocks)
    m = full_matrix_algebra(4)
    om = PositiveFunctional(np.diag([0.35, 0.35, 0.15, 0.15]).astype(complex))
    e = preserving_expectation(om, d, m)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = random_matrix(4, rng)
        assert hs_norm(e(x) - pinch(x, blocks)) <= 1e-9 * max(1.0, hs_norm(x))
        assert hs_norm(e(x) - phase_average(x, blocks)) <= 1e-9 * max(1.0, hs_norm(x))
    assert hs_norm(e.pullback(om).density - om.density) <= 1e-10


@seed(4)
@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
def test_diagonal_expectation_ignores_the_weights(weights):
    # onto a maximal abelian algebra every faithful diagonal functional
    # induces the same expectation, the diagonal truncation
    w = np.array(weights) / sum(weights)
    om = PositiveFunctional(np.diag(w).astype(complex))
    e = preserving_expectation(om, diagonal_algebra(4), full_matrix_algebra(4))
    x = random_matrix(4, np.random.default_rng(2))
    assert hs_norm(e(x) - np.diag(np.diag(x))) <= 1e-8


def test_singular_on_m_matches_closed_forms():
    # omega faithful on D but singular on M: the Gram system over D alone
    # determines the expectation.  Onto the scalars it is omega(x) I / omega(I)
    rng = np.random.default_rng(8)
    densities = [np.diag([0.5, 0.5, 0.0]).astype(complex)]
    for n in (3, 4, 5):
        for rank in range(1, n):
            g = random_matrix(n, rng)[:, :rank]
            densities.append(g @ dagger(g))
    for rho in densities:
        n = rho.shape[0]
        om = PositiveFunctional(rho)
        assert not om.is_faithful
        e = preserving_expectation(om, scalar_algebra(n), full_matrix_algebra(n))
        x = random_matrix(n, rng)
        want = om(x) / om(np.eye(n)) * np.eye(n)
        assert hs_norm(e(x) - want) <= 1e-9 * max(1.0, hs_norm(x))

    # onto x -> x (+) x, with omega living on the first copy only
    d = doubled_algebra()
    m4 = full_matrix_algebra(4)
    om4 = PositiveFunctional(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    e4 = preserving_expectation(om4, d, m4)
    x = random_matrix(4, np.random.default_rng(3))
    out = e4(x)
    assert hs_norm(out[:2, :2] - x[:2, :2]) <= 1e-9 * max(1.0, hs_norm(x))
    assert hs_norm(out[2:, 2:] - x[:2, :2]) <= 1e-9 * max(1.0, hs_norm(x))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_huge_densities_keep_their_verdicts(scale):
    # the squared entries overflow; the thresholds built from norms must not
    d = diagonal_algebra(2)
    m = full_matrix_algebra(2)
    skewed = PositiveFunctional(scale * np.array([[1.0, 1 / 3], [1 / 3, 1.0]], dtype=complex))
    ok, violation = is_D_central(skewed, d, m)
    assert not ok and violation == pytest.approx(scale / 3)
    rep = existence_diagnosis(skewed, d, m)
    assert not rep.central and rep.equivalences_hold
    with pytest.raises(NotDCentral):
        preserving_expectation(skewed, d, m)
    central = PositiveFunctional(scale * np.diag([0.7, 0.3]).astype(complex))
    x = random_matrix(2, np.random.default_rng(9))
    e = preserving_expectation(central, d, m)
    assert hs_norm(e(x) - np.diag(np.diag(x))) <= 1e-9 * hs_norm(x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_central_density_in_a_rotated_algebra():
    # the stacked commutator norms of a 1e300 density overflow unless rescaled
    u = haar_unitary(3, np.random.default_rng(1))
    d = unitary_conjugate_algebra(block_diagonal_algebra(3, [[0, 1], [2]]), u)
    m = full_matrix_algebra(3)
    omega = PositiveFunctional(1e300 * u @ np.diag([0.3, 0.3, 0.4]) @ dagger(u))
    ok, violation = is_D_central(omega, d, m)
    assert ok and violation <= 1e-9 * hs_norm(omega.density)
    rep = existence_diagnosis(omega, d, m)
    assert rep.central and rep.constructed and rep.equivalences_hold


@pytest.mark.parametrize("call", [is_D_central, locally_central_check, existence_diagnosis, preserving_expectation])
def test_mismatched_ambient_sizes_raise_a_typed_error(call):
    # omega on M_3 with D inside M_2: a typed error at the boundary, before any probe runs
    with pytest.raises(DimensionMismatch, match="M_3, M_2 and M_3"):
        call(PositiveFunctional.tracial(3), diagonal_algebra(2), full_matrix_algebra(3))


def test_not_central_gate():
    om = PositiveFunctional(np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
    with pytest.raises(NotDCentral):
        preserving_expectation(om, diagonal_algebra(2), full_matrix_algebra(2))


def test_gram_singular_gate():
    om = PositiveFunctional(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(GramSingular):
        preserving_expectation(om, diagonal_algebra(2), full_matrix_algebra(2))


def test_from_density_frozen():
    tau = PositiveFunctional.tracial(2)
    h = np.diag([0.6, 1.4]).astype(complex)
    e = expectation_from_density(h, scalar_algebra(2), full_matrix_algebra(2), tau)
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    # Tr(h x)/2 = (0.6*1 + 1.4*4)/2 = 3.1
    assert hs_norm(e(x) - 3.1 * np.eye(2)) <= 1e-10
    assert hs_norm(e.pullback(tau).density - np.diag([0.3, 0.7])) <= 1e-10


def test_from_density_identity_recovers_preserving():
    om = PositiveFunctional(np.diag([0.5, 0.3, 0.2]).astype(complex))
    d = block_diagonal_algebra(3, [[0, 1], [2]])
    m = full_matrix_algebra(3)
    with pytest.raises(NotDCentral):
        preserving_expectation(om, d, m)
    om2 = PositiveFunctional(np.diag([0.4, 0.4, 0.2]).astype(complex))
    e1 = preserving_expectation(om2, d, m)
    e2 = expectation_from_density(np.eye(3, dtype=complex), d, m, om2)
    assert np.linalg.norm(e1.map_matrix - e2.map_matrix) <= 1e-9


def test_from_density_gates():
    tau = PositiveFunctional.tracial(2)
    d = scalar_algebra(2)
    m = full_matrix_algebra(2)
    with pytest.raises(NotPositiveDefinite):
        expectation_from_density(np.diag([1.0, -0.5]).astype(complex), d, m, tau)
    with pytest.raises(NotNormalized):
        expectation_from_density(np.diag([1.0, 3.0]).astype(complex), d, m, tau)
    d2 = diagonal_algebra(2)
    off = np.array([[1.0, 0.1], [0.1, 1.0]], dtype=complex)
    with pytest.raises(DensityDoesNotCommute):
        expectation_from_density(off, d2, m, tau)
    nu = PositiveFunctional(np.diag([0.7, 0.3]).astype(complex))
    with pytest.raises(DensityDoesNotCommute):
        expectation_from_density(off, d, m, nu)


def bimodule_instance():
    """Two-block abelian D in M3 with a non-tracial reference and a
    nontrivial admissible density."""
    p1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    d = from_spanning([p1, p2])
    m = full_matrix_algebra(3)
    nu = PositiveFunctional.tracial(3)
    h = np.diag([1.4, 0.6, 1.0]).astype(complex)
    return h, d, m, nu


def test_density_round_trip():
    h, d, m, nu = bimodule_instance()
    e = expectation_from_density(h, d, m, nu)
    h_back = expectation_to_density(e, nu)
    assert hs_norm(h_back - h) <= 1e-8
    e_back = expectation_from_density(h_back, d, m, nu)
    assert np.linalg.norm(e_back.map_matrix - e.map_matrix) <= 1e-8
    # the deformed functional nu_h(x) = nu(h^{1/2} x h^{1/2}) is nu after e
    assert hs_norm(e.pullback(nu).density - h / 3) <= 1e-10


def test_to_density_tracial_scaling():
    h, d, m, nu = bimodule_instance()
    e = expectation_from_density(h, d, m, nu)
    assert hs_norm(expectation_to_density(e, nu) - 3 * e.pullback(nu).density) <= 1e-9


def test_epsilon_regularization_is_monotone():
    h, d, m, nu = bimodule_instance()
    e = expectation_from_density(h, d, m, nu)
    h0 = expectation_to_density(e, nu)
    n = h0.shape[0]
    previous = None
    for eps in (1e-3, 1e-6):
        h_eps = h0 @ np.linalg.inv(np.eye(n) + eps * h0)
        gaps = np.linalg.eigvalsh(h0 - h_eps)
        assert gaps[0] >= -1e-12
        assert np.linalg.norm(h_eps - h0) <= 1.01 * eps * np.linalg.norm(h0) ** 2
        if previous is not None:
            assert np.linalg.eigvalsh(h_eps - previous)[0] >= -1e-12
        previous = h_eps


def test_commutes_with_modular_true():
    nu = PositiveFunctional(np.diag([0.7, 0.3]).astype(complex))
    e = preserving_expectation(nu, diagonal_algebra(2), full_matrix_algebra(2))
    assert commutes_with_modular(e, nu)
    tau = PositiveFunctional.tracial(2)
    assert commutes_with_modular(e, tau)


def test_commutes_with_modular_false():
    tau = PositiveFunctional.tracial(2)
    e = preserving_expectation(tau, diagonal_algebra(2), full_matrix_algebra(2))
    nu = PositiveFunctional(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
    assert not commutes_with_modular(e, nu)
    with pytest.raises(DoesNotCommute):
        expectation_to_density(e, nu)
    # here nu∘E is the trace, invariant under every flow, yet the maps
    # still fail to commute; the one-sided consistency policy allows this
    nu_sym = PositiveFunctional(np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
    assert not commutes_with_modular(e, nu_sym)
    with pytest.raises(NotFaithful):
        commutes_with_modular(e, PositiveFunctional(np.diag([1.0, 0.0]).astype(complex)))


def test_average_frozen():
    tau = PositiveFunctional.tracial(2)
    psi = PositiveFunctional(np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex))
    res = average_to_central(psi, tau, diagonal_algebra(2), full_matrix_algebra(2))
    assert hs_norm(res.density - np.diag([0.5, 0.5])) <= 1e-10


def test_average_trivial_cases():
    m = full_matrix_algebra(2)
    om = PositiveFunctional(np.diag([0.6, 0.4]).astype(complex))
    psi = PositiveFunctional(np.array([[0.55, 0.05], [0.05, 0.45]], dtype=complex))
    # D scalar: the relative commutant is everything, so nothing changes
    res = average_to_central(psi, om, scalar_algebra(2), m)
    assert hs_norm(res.density - psi.density) <= 1e-9
    # D = M forces omega tracial; the only extension of omega|M is omega
    tau = PositiveFunctional.tracial(2)
    res = average_to_central(tau, tau, full_matrix_algebra(2), m)
    assert hs_norm(res.density - tau.density) <= 1e-9


def test_average_gates():
    m = full_matrix_algebra(2)
    tau = PositiveFunctional.tracial(2)
    skew = PositiveFunctional(np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
    with pytest.raises(NotCentral):
        average_to_central(tau, skew, diagonal_algebra(2), m)
    with pytest.raises(NotAnExtension):
        average_to_central(PositiveFunctional(np.diag([0.9, 0.1]).astype(complex)), tau, diagonal_algebra(2), m)
    with pytest.raises(NotFaithful):
        average_to_central(tau, PositiveFunctional(np.diag([1.0, 0.0]).astype(complex)), diagonal_algebra(2), m)


def test_average_inherits_commutation():
    p1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    d = from_spanning([p1, E33])
    m = full_matrix_algebra(3)
    om = PositiveFunctional(np.diag([0.4, 0.35, 0.25]).astype(complex))
    psi = PositiveFunctional(np.diag([0.3, 0.45, 0.25]).astype(complex))
    res = average_to_central(psi, om, d, m)
    assert hs_norm(commutator(res.density, om.density)) <= 1e-10
    ok, _ = is_D_central(res, d, m)
    assert ok
    for x in d.basis:
        assert abs(res(x) - om(x)) <= 1e-9


def test_support_of_map():
    nu = PositiveFunctional(np.diag([0.7, 0.3]).astype(complex))
    e = preserving_expectation(nu, diagonal_algebra(2), full_matrix_algebra(2))
    assert hs_norm(support_of_map(e) - np.eye(2)) <= 1e-8
    # x -> pxp on M_3, not validated, so support_of_map tests its idempotence itself
    p = np.diag([1.0, 0.0, 1.0]).astype(complex)
    m3 = full_matrix_algebra(3)
    compression = ConditionalExpectation(sandwich_matrix(p, p), m3, m3.space, p, m3, check=False)
    assert hs_norm(support_of_map(compression) - p) <= 1e-8


def test_support_ideal_frozen():
    m = full_matrix_algebra(3)
    om = PositiveFunctional(E33.copy())
    x = random_matrix(3, np.random.default_rng(4))
    for d in (diagonal_algebra(3), from_spanning([np.eye(3, dtype=complex), E33])):
        e = support_ideal_expectation(om, d, m)
        assert hs_norm(e(x) - x[2, 2] * E33) <= 1e-9 * max(1.0, hs_norm(x))
        assert hs_norm(e.unit - E33) <= 1e-9
        assert hs_norm(e.support - E33) <= 1e-8
        # bimodule over all of D, not only over the ideal
        for dd in d.basis:
            assert hs_norm(e(dd @ x) - dd @ e(x)) <= 1e-8 * max(1.0, hs_norm(x))


def test_support_ideal_nested_compression():
    # omega(a) = a11 with D spanned by I and E33: the support ideal is
    # spanned by diag(1,1,0), and inside the compressed corner the
    # functional is singular again
    m = full_matrix_algebra(3)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    om = PositiveFunctional(rho)
    d = from_spanning([np.eye(3, dtype=complex), E33])
    e = support_ideal_expectation(om, d, m)
    z = np.diag([1.0, 1.0, 0.0]).astype(complex)
    x = random_matrix(3, np.random.default_rng(5))
    assert hs_norm(e(x) - x[0, 0] * z) <= 1e-9 * max(1.0, hs_norm(x))
    assert hs_norm(e.unit - z) <= 1e-9
    assert hs_norm(support_of_map(e) - np.diag([1.0, 0.0, 0.0])) <= 1e-8


@pytest.mark.parametrize("breakage, invariant", [("scaled", "unital"), ("identity", "range")])
def test_support_ideal_validates_the_lifted_map(monkeypatch, breakage, invariant):
    # the compressed expectation is built unvalidated, so a defect in it must
    # surface from the checks on the lifted map: halving it breaks the unit
    # and idempotence, the identity on zMz keeps every invariant but the range
    build = expectations._preserving_expectation

    def broken(omega, d, m, check=True):
        f = build(omega, d, m, check)
        k = 0.5 * f.map_matrix if breakage == "scaled" else projector_matrix(m.space)
        return ConditionalExpectation(k, f.domain, f.range_space, f.unit, f.bimodule, check=False)

    monkeypatch.setattr(expectations, "_preserving_expectation", broken)
    m = full_matrix_algebra(3)
    e11 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    d_small = from_spanning([np.eye(3, dtype=complex), E33])
    cases = [(E33, d_small), (E33, diagonal_algebra(3)), (e11, d_small)]
    if breakage == "identity":
        # on the rank-one corners zMz is the scalars, where the identity is the right map
        cases = cases[2:]
    for rho, d in cases:
        with pytest.raises(InvariantViolation, match=invariant):
            support_ideal_expectation(PositiveFunctional(rho.copy()), d, m)


def test_support_ideal_reduces_when_faithful():
    m = full_matrix_algebra(3)
    om = PositiveFunctional(np.diag([0.5, 0.3, 0.2]).astype(complex))
    e1 = support_ideal_expectation(om, diagonal_algebra(3), m)
    e2 = preserving_expectation(om, diagonal_algebra(3), m)
    assert np.linalg.norm(e1.map_matrix - e2.map_matrix) <= 1e-9
    assert hs_norm(e1.unit - np.eye(3)) <= 1e-9


def test_singular_extension_properties():
    # the composite omega after the support-ideal map is a state extension
    # of omega|D that keeps D in its centralizer and has the same support
    m = full_matrix_algebra(4)
    d = diagonal_algebra(4)
    rng = np.random.default_rng(6)
    for _ in range(5):
        w = rng.uniform(0.1, 1.0, size=3)
        rho = np.diag(np.concatenate([w / w.sum(), [0.0]])).astype(complex)
        om = PositiveFunctional(rho)
        e = support_ideal_expectation(om, d, m)
        phi = e.pullback(om)
        assert abs(phi.trace - 1) <= 1e-9
        for x in d.basis:
            assert abs(phi(x) - om(x)) <= 1e-9
        ok, _ = is_D_central(phi, d, m)
        assert ok
        assert hs_norm(phi.support_in(d) - om.support_in(d)) <= 1e-8


def test_kadison_schwarz():
    rng = np.random.default_rng(7)
    h, d3, m3, nu3 = bimodule_instance()
    maps = [
        preserving_expectation(PositiveFunctional.tracial(3), diagonal_algebra(3), m3),
        expectation_from_density(h, d3, m3, nu3),
        preserving_expectation(
            PositiveFunctional(np.diag([0.35, 0.35, 0.15, 0.15]).astype(complex)),
            block_diagonal_algebra(4, [[0, 1], [2, 3]]),
            full_matrix_algebra(4),
        ),
    ]
    for e in maps:
        for _ in range(6):
            x = random_matrix(e.n, rng)
            gap = e(dagger(x) @ x) - dagger(e(x)) @ e(x)
            assert np.linalg.eigvalsh((gap + dagger(gap)) / 2)[0] >= -1e-8 * hs_norm(x) ** 2


def test_choi_positive():
    h, d3, m3, nu3 = bimodule_instance()
    maps = [
        preserving_expectation(PositiveFunctional.tracial(3), diagonal_algebra(3), m3),
        expectation_from_density(h, d3, m3, nu3),
        support_ideal_expectation(PositiveFunctional(E33.copy()), diagonal_algebra(3), m3),
    ]
    for e in maps:
        c = choi_matrix(e)
        assert np.linalg.eigvalsh((c + dagger(c)) / 2)[0] >= -1e-10


def test_validation_names_the_broken_invariant():
    m = full_matrix_algebra(2)
    d = diagonal_algebra(2)
    tau = PositiveFunctional.tracial(2)
    e = preserving_expectation(tau, d, m)
    with pytest.raises(InvariantViolation, match="unital"):
        ConditionalExpectation(0.5 * e.map_matrix, m, d.space, np.eye(2), d)
    u = np.diag([1.0, 1.0j])
    with pytest.raises(InvariantViolation, match="idempotent"):
        ConditionalExpectation(sandwich_matrix(u, dagger(u)), m, m.space, np.eye(2), scalar_algebra(2))
    scalar_map = preserving_expectation(tau, scalar_algebra(2), m)
    with pytest.raises(InvariantViolation, match="bimodule"):
        ConditionalExpectation(scalar_map.map_matrix, m, scalar_algebra(2).space, np.eye(2), d)
    with pytest.raises(InvariantViolation, match="range"):
        ConditionalExpectation(e.map_matrix, m, scalar_algebra(2).space, np.eye(2), scalar_algebra(2))


def test_diagnosis_central_instance():
    rep = existence_diagnosis(PositiveFunctional.tracial(3), diagonal_algebra(3), full_matrix_algebra(3))
    assert rep.faithful_on_D and rep.tracial_on_D and rep.central
    assert rep.locally_central and rep.support_commutes and rep.modular_invariant
    assert rep.constructed and rep.equivalences_hold and rep.failure is None
    assert rep.expectation is not None


def test_diagnosis_skewed_instance():
    om = PositiveFunctional(np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
    rep = existence_diagnosis(om, diagonal_algebra(2), full_matrix_algebra(2))
    assert rep.faithful_on_D and not rep.central and not rep.locally_central
    assert not rep.modular_invariant and not rep.constructed
    assert rep.equivalences_hold
    assert rep.failure is not None and rep.central_violation > 0.1


def test_diagnosis_singular_instance():
    om = PositiveFunctional(np.diag([1.0, 0.0]).astype(complex))
    rep = existence_diagnosis(om, diagonal_algebra(2), full_matrix_algebra(2))
    assert not rep.faithful_on_D and not rep.constructed
    assert rep.equivalences_hold


def test_diagnosis_invariant_but_not_tracial():
    # rho = (h (+) h)/2 on the doubled copy of M2: the modular flow leaves D
    # invariant (an expectation exists) yet omega is neither D-central nor
    # tracial on D, so every leg of the equivalence fails together
    h = np.diag([0.6, 0.4])
    om = PositiveFunctional(np.diag(np.concatenate([h.diagonal(), h.diagonal()])).astype(complex) / 2)
    d = doubled_algebra()
    rep = existence_diagnosis(om, d, full_matrix_algebra(4))
    assert rep.modular_invariant and rep.faithful_on_D
    assert not rep.central and not rep.tracial_on_D
    assert rep.constructed
    assert rep.equivalences_hold


@seed(5)
@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=2))
def test_diagnosis_on_block_scalar_weights(weights):
    w = np.array(weights) / (2 * sum(weights))
    om = PositiveFunctional(np.diag([w[0], w[0], w[1], w[1]]).astype(complex))
    d = block_diagonal_algebra(4, [[0, 1], [2, 3]])
    rep = existence_diagnosis(om, d, full_matrix_algebra(4))
    assert rep.central and rep.constructed and rep.equivalences_hold
    assert rep.tracial_on_D and rep.modular_invariant


def test_diagnosis_lets_a_programming_error_through():
    # a missing D is a caller's bug, not a verdict that no expectation exists
    with pytest.raises(AttributeError):
        existence_diagnosis(PositiveFunctional.tracial(3), None, full_matrix_algebra(3))


def test_zero_functional_meets_a_typed_error():
    zero = PositiveFunctional(np.zeros((3, 3)))
    d, m = diagonal_algebra(3), full_matrix_algebra(3)
    with pytest.raises(EmptyInput):
        support_ideal_expectation(zero, d, m)
    rep = existence_diagnosis(zero, d, m)
    assert not rep.constructed and not rep.modular_invariant and not rep.faithful_on_D
    assert rep.central and rep.support_commutes and rep.equivalences_hold
    assert rep.failure.startswith("GramSingular")


def _nonfinite_expectation(k):
    d = diagonal_algebra(2)
    return ConditionalExpectation(k, full_matrix_algebra(2), d.space, np.eye(2), d)


def _nonfinite_character(k):
    blocks = [[0], [1]]
    return DCharacter(k, block_upper_triangular(2, blocks), block_diagonal_algebra(2, blocks))


@pytest.mark.parametrize("build", [_nonfinite_expectation, _nonfinite_character])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_map_matrix_is_rejected(build, value):
    with pytest.raises(InvariantViolation, match="finite"):
        build(np.full((4, 4), value, dtype=complex))


def test_nan_idempotence_defect_fails_the_check():
    # the off-diagonal part c N squares to c^2 N^2 = 0, but c^2 overflows, so
    # the idempotence rows are inf - inf = NaN against a true defect of 2.8e200
    nil = np.zeros((4, 4), dtype=complex)
    nil[1, 1] = nil[2, 1] = 1.0
    nil[1, 2] = nil[2, 2] = -1.0
    k = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex) + 1e200 * (1 + 1j) * nil
    d = diagonal_algebra(2)
    e = ConditionalExpectation(k, full_matrix_algebra(2), d.space, np.eye(2), d, check=False)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(hs_norm(e.images @ e.map_matrix.T - e.images))
        with pytest.raises(InvariantViolation, match="^idempotent"):
            e.validate()
