import numpy as np
import pytest

from ncrep.algebras import (
    block_diagonal_algebra,
    block_upper_triangular,
    diagonal_algebra,
    full_matrix_algebra,
    scalar_algebra,
    unitary_conjugate_algebra,
)
from ncrep import linalg, states
from ncrep.errors import (
    DoesNotCommute,
    InconsistencyDetected,
    NcrepError,
    NotFaithful,
    NotHermitian,
    NotPositiveDefinite,
    check,
    cross_check,
)
from ncrep.instances import haar_unitary, random_central_density, random_density, random_partition
from ncrep.linalg import commutator, dagger, hs_norm, hs_norms, require_hermitian, same_subspace
from ncrep.states import (
    PositiveFunctional,
    centralizer,
    check_support_compression,
    connes_cocycle,
    is_D_central,
    locally_central_check,
    modular_group,
    modular_invariance_check,
    omega_central_algebra,
    pt_radon_nikodym,
    sample_projections,
    tracial_certificate,
)

E33 = np.diag([0.0, 0.0, 1.0])


def random_state(n, rng):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = x @ dagger(x) + 1e-3 * np.eye(n)
    return PositiveFunctional(rho / np.trace(rho).real)


def test_validation():
    with pytest.raises(NotHermitian):
        PositiveFunctional(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPositiveDefinite):
        PositiveFunctional(np.diag([1.0, -0.2]))


def test_state_flags():
    omega = PositiveFunctional.tracial(4)
    assert omega.is_state and omega.is_faithful
    assert omega(np.diag([1.0, 0, 0, 0])) == pytest.approx(0.25)


def test_support_projection_corner_functional():
    omega = PositiveFunctional(E33)
    assert np.allclose(omega.support, E33, atol=1e-12)


def test_support_projection_rank_two():
    omega = PositiveFunctional(np.diag([0.5, 0.5, 0.0]))
    assert np.allclose(omega.support, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert PositiveFunctional.tracial(3).support == pytest.approx(np.eye(3))


def test_centralizer_of_tracial_is_everything():
    m = full_matrix_algebra(3)
    assert centralizer(PositiveFunctional.tracial(3), m).dim == 9


def test_centralizer_frozen_dimension():
    omega = PositiveFunctional(np.diag([0.5, 0.25, 0.25]))
    c = centralizer(omega, full_matrix_algebra(3))
    # commutant of diag(1/2,1/4,1/4): one 1x1 block plus a full 2x2 block
    assert c.dim == 5
    assert c.contains(np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))


def test_centralizer_distinct_eigenvalues_is_diagonal():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    rho = q @ np.diag([0.5, 0.3, 0.2]) @ dagger(q)
    c = centralizer(PositiveFunctional(rho), full_matrix_algebra(3))
    assert c.dim == 3
    assert c.contains(q @ np.diag([1.0, 2.0, 3.0]) @ dagger(q))


def test_centralizer_requires_faithful():
    with pytest.raises(NotFaithful):
        centralizer(PositiveFunctional(E33), full_matrix_algebra(3))


def test_omega_central_algebra_corner_functional():
    alg = omega_central_algebra(PositiveFunctional(E33), full_matrix_algebra(3))
    # block-commutant of E33 (M_2 + C), all of it central for this omega
    assert alg.dim == 5
    assert alg.contains(np.diag([1.0, 2.0, 3.0]))
    assert not alg.contains(np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=complex))


def test_omega_central_matches_centralizer_when_faithful():
    rng = np.random.default_rng(3)
    omega = random_state(4, rng)
    m = full_matrix_algebra(4)
    assert same_subspace(centralizer(omega, m).space, omega_central_algebra(omega, m).space)


def test_support_compression_identity():
    rng = np.random.default_rng(4)
    for n in (3, 4, 5):
        x = rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
        rho = x @ dagger(x)
        omega = PositiveFunctional(rho / np.trace(rho).real)
        assert check_support_compression(omega, full_matrix_algebra(n))


def test_tracial_certificate_detects_trace():
    m = full_matrix_algebra(3)
    cert = tracial_certificate(PositiveFunctional.tracial(3), m)
    assert cert.result and cert.max_violation <= 1e-12
    skew = tracial_certificate(PositiveFunctional(np.diag([0.5, 0.3, 0.2])), m)
    assert not skew.result


def test_tracial_iff_central_density():
    rng = np.random.default_rng(5)
    m = full_matrix_algebra(4)
    for _ in range(20):
        omega = random_state(4, rng)
        cert = tracial_certificate(omega, m)
        comm = max(hs_norm(commutator(omega.density, b)) for b in m.basis)
        assert cert.result == (comm <= 1e-9)


def test_is_D_central_trivial_cases():
    rng = np.random.default_rng(6)
    omega = random_state(3, rng)
    m = full_matrix_algebra(3)
    ok, violation = is_D_central(omega, scalar_algebra(3), m)
    assert ok and violation <= 1e-12
    ok, _ = is_D_central(PositiveFunctional.tracial(3), diagonal_algebra(3), m)
    assert ok


def test_is_D_central_detects_off_diagonal():
    omega = PositiveFunctional(np.array([[0.5, 0.2], [0.2, 0.5]]))
    ok, violation = is_D_central(omega, diagonal_algebra(2), full_matrix_algebra(2))
    assert not ok and violation > 0.1


def test_support_commutes_with_D_when_central():
    # omega(a) = a_33 is central for the block algebra M_2 + C
    omega = PositiveFunctional(E33)
    d = block_diagonal_algebra(3, [[0, 1], [2]])
    m = full_matrix_algebra(3)
    ok, _ = is_D_central(omega, d, m)
    assert ok
    e = omega.support
    assert all(hs_norm(commutator(e, b)) <= 1e-12 for b in d.basis)


def test_sample_projections_live_in_algebra():
    d = block_diagonal_algebra(4, [[0, 1], [2], [3]])
    projections = sample_projections(d, cap=16)
    assert any(np.allclose(p, np.eye(4)) for p in projections)
    for p in projections:
        assert d.contains(p)
        assert hs_norm(p @ p - p) <= 1e-9
        assert hs_norm(p - dagger(p)) <= 1e-9


@pytest.mark.parametrize("n, sizes, passes", [(3, (2, 1), 1), (4, (3, 1), 1), (8, (4, 3, 1), 3), (10, (5, 4, 1), 8)])
def test_local_violation_in_chunks_equals_one_pass(monkeypatch, n, sizes, passes):
    # 16 projections: one pass up to n = 4, several chunks from n = 8 on, sized by the units gathered:
    # on a block-diagonal D past the crossover those E_ij with i <= j, k (k + 1) / 2 per block of size k
    units = sum(k * (k + 1) // 2 if n**4 > linalg._BLOCK_FROM else k * k for k in sizes)
    assert passes == -(-16 // max(1, linalg._CHUNK_ELEMENTS // (9 * units * n * n)))
    ends = np.cumsum(sizes)
    d = block_diagonal_algebra(n, [list(range(end - size, end)) for end, size in zip(ends, sizes)])
    m = full_matrix_algebra(n)
    rng = np.random.default_rng(n)
    projections = np.stack(sample_projections(d, 16))
    slices, chunk_slices = [], states.chunk_slices

    def recording(count, item_size):
        slices.append(chunk_slices(count, item_size))
        return slices[-1]

    monkeypatch.setattr(states, "chunk_slices", recording)
    omegas = (random_density(n, rng), random_central_density(n, d, rng))
    chunked = [states._local_violation(omega, projections, d, m) for omega in omegas]
    assert [len(s) for s in slices] == [passes, passes]
    monkeypatch.setattr(linalg, "_CHUNK_ELEMENTS", 1 << 40)
    one_pass = [states._local_violation(omega, projections, d, m) for omega in omegas]
    assert [len(s) for s in slices[2:]] == [1, 1]
    for omega, got, want in zip(omegas, chunked, one_pass):
        assert abs(got - want) <= 1e-12 * max(want, hs_norm(omega.density))
    assert chunked[0] > 1e-3  # the non-central state's statistic is far from rounding noise


def test_locally_central_check_agrees_with_global():
    m = full_matrix_algebra(3)
    d = block_diagonal_algebra(3, [[0, 1], [2]])
    assert locally_central_check(PositiveFunctional.tracial(3), d, m)
    assert locally_central_check(PositiveFunctional(E33), d, m)
    omega = PositiveFunctional(np.array([[0.4, 0.2, 0], [0.2, 0.4, 0], [0, 0, 0.2]]))
    assert locally_central_check(omega, diagonal_algebra(3), m) is False


def test_modular_group_tracial_is_identity():
    sigma = modular_group(PositiveFunctional.tracial(3), 1.7)
    x = np.arange(9.0).reshape(3, 3)
    assert np.allclose(sigma(x), x, atol=1e-12)


def test_modular_group_frozen_phase():
    omega = PositiveFunctional(np.diag([0.7, 0.3]))
    sigma = modular_group(omega, 1.0)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    want = np.exp(1j * np.log(7.0 / 3.0)) * e12
    assert np.allclose(sigma(e12), want, atol=1e-12)


def test_modular_group_preserves_omega_and_centralizer():
    rng = np.random.default_rng(7)
    omega = random_state(4, rng)
    for t in (0.3, 1.0, np.sqrt(2)):
        sigma = modular_group(omega, t)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert omega(sigma(x)) == pytest.approx(omega(x), rel=1e-9, abs=1e-12)
    assert np.allclose(sigma(omega.density), omega.density, atol=1e-9)


def test_modular_invariance_check():
    assert modular_invariance_check(PositiveFunctional(np.diag([0.6, 0.4])), diagonal_algebra(2))
    skew = PositiveFunctional(np.array([[0.5, 0.2], [0.2, 0.5]]))
    assert not modular_invariance_check(skew, diagonal_algebra(2))
    assert modular_invariance_check(skew, scalar_algebra(2))
    with pytest.raises(NotFaithful):
        modular_invariance_check(PositiveFunctional(np.diag([1.0, 0.0])), diagonal_algebra(2))


def test_pt_radon_nikodym_identity_and_trace_reference():
    rng = np.random.default_rng(8)
    phi = random_state(3, rng)
    assert np.allclose(pt_radon_nikodym(phi, phi), np.eye(3), atol=1e-9)
    psi = random_state(3, rng)
    h = pt_radon_nikodym(psi, PositiveFunctional.tracial(3))
    assert np.allclose(h, 3 * psi.density, atol=1e-9)


def test_pt_radon_nikodym_diagonal_ratio():
    psi = PositiveFunctional(np.diag([0.1, 0.3, 0.6]))
    phi = PositiveFunctional(np.diag([0.2, 0.4, 0.4]))
    h = pt_radon_nikodym(psi, phi)
    assert np.allclose(h, np.diag([0.5, 0.75, 1.5]), atol=1e-10)


def test_pt_radon_nikodym_non_faithful_psi():
    psi = PositiveFunctional(np.diag([0.0, 1.0]))
    phi = PositiveFunctional(np.diag([0.5, 0.5]))
    h = pt_radon_nikodym(psi, phi)
    assert np.allclose(h, np.diag([0.0, 2.0]), atol=1e-10)


def test_pt_radon_nikodym_requires_commuting():
    psi = PositiveFunctional(np.array([[0.5, 0.2], [0.2, 0.5]]))
    phi = PositiveFunctional(np.diag([0.7, 0.3]))
    with pytest.raises(DoesNotCommute):
        pt_radon_nikodym(psi, phi)


def test_pt_radon_nikodym_round_trip():
    rng = np.random.default_rng(9)
    phi = random_state(4, rng)
    u = phi.spectrum.eigenvectors
    h = u @ np.diag([0.2, 0.9, 1.4, 2.0]) @ dagger(u)  # commutes with the density
    root = u @ np.diag(np.sqrt([0.2, 0.9, 1.4, 2.0])) @ dagger(u)
    psi = PositiveFunctional(root @ phi.density @ root)
    assert np.allclose(pt_radon_nikodym(psi, phi), h, atol=1e-8)


def test_connes_cocycle():
    rng = np.random.default_rng(10)
    phi = random_state(3, rng)
    assert np.allclose(connes_cocycle(phi, phi, 0.7), np.eye(3), atol=1e-10)
    psi = PositiveFunctional(np.diag([0.2, 0.3, 0.5]))
    chi = PositiveFunctional(np.diag([0.4, 0.4, 0.2]))
    u = connes_cocycle(psi, chi, 0.5)
    want = np.diag(np.exp(0.5j * (np.log([0.2, 0.3, 0.5]) - np.log([0.4, 0.4, 0.2]))))
    assert np.allclose(u, want, atol=1e-10)


def test_connes_cocycle_identity():
    rng = np.random.default_rng(11)
    psi, phi = random_state(3, rng), random_state(3, rng)
    t = s = 0.3
    u_ts = connes_cocycle(psi, phi, t + s)
    sigma = modular_group(phi, t)
    assert np.allclose(u_ts, connes_cocycle(psi, phi, t) @ sigma(connes_cocycle(psi, phi, s)), atol=1e-9)


def test_cocycle_of_commuting_densities_is_power():
    psi = PositiveFunctional(np.diag([0.2, 0.8]))
    phi = PositiveFunctional(np.diag([0.5, 0.5]))
    h = pt_radon_nikodym(psi, phi)
    from ncrep.linalg import imag_power

    assert np.allclose(connes_cocycle(psi, phi, 0.9), imag_power(h, 0.9), atol=1e-10)


@pytest.mark.parametrize("verdict", [True, False])
def test_cross_check_agreement_returns_the_verdict(verdict):
    stat = 1e-12 if verdict else 1.0
    assert cross_check("routes", verdict, verdict, (stat, 1e-9), (stat, 1e-9)) is verdict


def test_cross_check_raises_on_a_decisive_disagreement():
    with pytest.raises(InconsistencyDetected, match="routes"):
        cross_check("routes", True, False, (1e-12, 1e-9), (1e-6, 1e-9))
    # one-route form: an implication broken decisively
    with pytest.raises(InconsistencyDetected):
        cross_check("implied", True, False, (31e-9, 1e-9))


@pytest.mark.parametrize("margins", [
    ((1e-12, 1e-9), (29e-9, 1e-9)),  # second statistic within 30x above its threshold
    ((1e-12, 1e-9), (1e-9 / 29, 1e-9)),  # ... or within 30x below it
    ((1e-9 / 29, 1e-9), (1e-6, 1e-9)),  # the first route near its threshold
])
def test_cross_check_tolerates_a_disagreement_near_a_threshold(margins):
    assert cross_check("routes", True, False, *margins) is True


def test_is_D_central_raises_when_its_routes_disagree(monkeypatch):
    # the tracial state is D-central; a bilinear route claiming a large
    # violation contradicts the commutator route decisively
    omega = PositiveFunctional.tracial(3)
    d, m = diagonal_algebra(3), full_matrix_algebra(3)
    monkeypatch.setattr(states, "_central_violation", lambda *args: 1e-3)
    with pytest.raises(InconsistencyDetected, match="centrality"):
        is_D_central(omega, d, m)
    # within a factor 30 of the threshold the bilinear route decides alone
    threshold = 1e-9 * hs_norm(omega.density)
    monkeypatch.setattr(states, "_central_violation", lambda *args: 10 * threshold)
    assert is_D_central(omega, d, m) == (False, 10 * threshold)


@pytest.mark.parametrize("n", range(1, 13))
def test_the_gates_on_identity_rows_equal_the_pairing_route_bitwise(monkeypatch, n):
    # tracial_certificate and the D-centrality violation read M's identity rows off rho and
    # rho d - d rho; the trace pairings with those rows multiply by exact ones and zeros
    rng = np.random.default_rng(n)
    m = full_matrix_algebra(n)
    d = unitary_conjugate_algebra(block_diagonal_algebra(n, random_partition(n, rng)), haar_unitary(n, rng))
    omegas = [random_density(n, rng), PositiveFunctional.tracial(n), random_central_density(n, d, rng)]

    def violations():
        return [(tracial_certificate(o, m).max_violation, states._central_violation(o, d, m)) for o in omegas]

    got = violations()
    monkeypatch.setattr(states, "_identity_rows", lambda space: False)
    assert got == violations()


@pytest.mark.parametrize("n", range(1, 13))
def test_the_tracial_certificate_on_block_units_equals_the_pairing_route_bitwise(monkeypatch, n):
    # on the units of an equivalence relation's blocks the certificate reads rho's off-diagonal
    # entries and diagonal differences within each block; the pairing multiplies by exact ones and zeros
    rng = np.random.default_rng(n)
    blocks = random_partition(n, rng)
    d = block_diagonal_algebra(n, blocks)
    algebras = [d, block_upper_triangular(n, [list(range(n))]), block_upper_triangular(n, blocks)]
    omegas = [random_density(n, rng), PositiveFunctional.tracial(n), random_central_density(n, d, rng)]

    def certificates():
        return [(c.result, c.max_violation) for c in (tracial_certificate(o, a) for a in algebras for o in omegas)]

    assert [states._unit_mask(a) is not None for a in algebras] == [True, True, len(blocks) == 1]
    got = certificates()
    for a in algebras:  # the one-block algebra is all of M_n: undeclared, it is no longer the identity
        monkeypatch.setattr(a.space, "unit_columns", None)
    assert [states._unit_mask(a) for a in algebras] == [None] * 3
    assert got == certificates()


def _svd_scaled_outcome(rho):
    """The density checks with both thresholds scaled by the spectral norm from an SVD, as the
    class and message they raise, or None."""
    scale = float(np.linalg.norm(rho, 2))
    try:
        require_hermitian(NotHermitian, "density must be Hermitian", rho, scale)
        low = np.linalg.eigvalsh((rho + dagger(rho)) / 2)[0]
        check(NotPositiveDefinite, "density has negative eigenvalue -{:.3e}", -low, 1e-10 * max(1.0, scale))
    except NcrepError as err:
        return type(err), str(err)
    return None


_HALF_BELOW, _HALF_ABOVE = 0.5 * (1 - 1e-9), 0.5 * (1 + 1e-9)  # four of them: HS norm just below, above 1
_ROOT_BELOW, _ROOT_ABOVE = (1 - 1e-9) / np.sqrt(2), (1 + 1e-9) / np.sqrt(2)  # two of them


@pytest.mark.parametrize("rho", [
    np.diag([_HALF_BELOW] * 4),
    np.diag([_HALF_ABOVE] * 4),  # spectral norm 1/2 under HS norm 1 + 1e-9
    np.diag([_HALF_BELOW] * 4 + [-1.5e-10]),  # negative: threshold 1e-10 on either side
    np.diag([_HALF_ABOVE] * 4 + [-1.5e-10]),
    np.diag([_HALF_ABOVE] * 4 + [-0.5e-10]),
    np.diag([3.0, 0.5, 1.0, -2.5e-10]),  # negative at norm 3: threshold 3e-10
    np.diag([3.0, 0.5, 1.0, -3.5e-10]),
    np.array([[_ROOT_BELOW, 1.5e-10], [0.0, _ROOT_BELOW]]),  # not Hermitian: defect 2.1e-10 over 1e-10
    np.array([[_ROOT_ABOVE, 1.5e-10], [0.0, _ROOT_ABOVE]]),
    np.array([[_ROOT_ABOVE, 0.5e-10], [0.0, _ROOT_ABOVE]]),
    np.array([[2.0, 1.2e-10], [0.0, 0.5]]),  # not Hermitian at norm 2: defect 1.7e-10 under 2e-10
    np.array([[2.0, 1.5e-10], [0.0, 0.5]]),
])
def test_density_checks_keep_their_thresholds_without_the_svd(monkeypatch, rho):
    # max(1, ||rho||) scales both thresholds and ||rho|| <= ||rho||_HS: at HS norm at most 1 the
    # spectral norm is not formed, and every verdict, class and message stays the SVD-scaled one
    rho = rho.astype(complex)
    want = _svd_scaled_outcome(rho)
    norms = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: norms.append(args) or norm(*args, **kwargs))
    try:
        PositiveFunctional(rho)
        got = None
    except NcrepError as err:
        got = type(err), str(err)
    assert got == want
    assert (len(norms) == 0) == (hs_norm(rho) <= 1.0)


def test_duplicates_read_from_one_distance_pass_match_the_per_candidate_differences():
    # candidates 0.5e-8, 2e-8, 0.3 and 0.6 from a held projection p along a unit Hermitian direction,
    # one an exact copy of an earlier candidate: the Gram screen leaves each verdict to the differences
    n = 5
    rng = np.random.default_rng(5)
    p = np.diag([1.0, 1.0, 0.0, 0.0, 0.0]).astype(complex)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (x + dagger(x)) / hs_norm(x + dagger(x))
    held = np.stack([np.eye(n, dtype=complex), p])
    steps = (0.5e-8, 2e-8, 0.3, 0.6)
    found = np.stack([p + t * h for t in steps] + [p + 2e-8 * h, np.eye(n) - p])
    dup_held, dup_found = states._duplicates(held, found)
    assert dup_held == [bool(hs_norms(held - q).min() <= 1e-8) for q in found] == [True, False, False, False, False, False]
    assert dup_found == [[bool(hs_norm(r - q) <= 1e-8) for r in found] for q in found]
    assert dup_found[4][1] and not dup_found[4][0]
