import decimal
from contextlib import nullcontext
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import dense_oracle
from dense_oracle import jensen_suite_per_draw, projector_matrix
from ncrep import jensen, linalg
from ncrep.algebras import from_spanning, full_matrix_algebra, unitary_conjugate_algebra
from ncrep.errors import (
    DimensionMismatch,
    InconsistencyDetected,
    InvariantViolation,
    NcrepError,
    NotBoundedBelow,
    NotInvertible,
    NotTracial,
    NotTriangularType,
)
from ncrep.instances import haar_unitary, random_block_instance
from ncrep.jensen import (
    GeometricMeanReport,
    _geometric_means,
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


@pytest.mark.parametrize("n_powers", [40, 50, 60, 100])
@pytest.mark.parametrize("spectrum", [(1.0, 1e3), (1.0, 2.0), (3.0, 1e-3)])
def test_long_power_sequences_stay_monotone_and_land_on_the_closed_form(spectrum, n_powers):
    # the 2^p-th power scales the log of term p by 2^p: formed from the terms themselves, their
    # long-double rounding grew past the monotone check's slack from about p = 40 on
    tau = PositiveFunctional.tracial(2)
    report = geometric_mean(tau, np.diag(spectrum).astype(complex), n_powers=n_powers)
    want = np.sqrt(spectrum[0] * spectrum[1])
    seq = np.array(report.power_sequence)
    assert np.all(np.diff(seq) <= 0.0)
    assert abs(report.value - want) <= 1e-15 * want
    if n_powers >= 60:  # the sequence has converged to the closed form's rounding
        assert abs(seq[-1] - want) <= 1e-15 * want
    # each term against (mean of lam^(2^-p))^(2^p) in 80-digit decimal arithmetic
    with decimal.localcontext(decimal.Context(prec=80)):
        logs = [decimal.Decimal(lam).ln() for lam in spectrum]
        for p in (0, 10, 20, n_powers):
            scale = decimal.Decimal(2) ** p
            term = sum((log / scale).exp() for log in logs) / len(logs)
            want_p = float((term.ln() * scale).exp())
            assert abs(seq[p] - want_p) <= 4 * np.finfo(float).eps * want_p


def test_geometric_mean_gates():
    tau = PositiveFunctional.tracial(2)
    with pytest.raises(NotInvertible):
        geometric_mean(tau, np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
    not_a_state = PositiveFunctional(np.diag([1.0, 1.0]).astype(complex))
    with pytest.raises(InvariantViolation):
        geometric_mean(not_a_state, np.eye(2, dtype=complex))


@pytest.mark.parametrize("n_powers", [24, 40])
@pytest.mark.parametrize("s", [3e-10, 1e-9, 3e-9, 1e-8])
def test_geometric_mean_reads_small_singular_values_off_the_svd(s, n_powers):
    # a = u diag(1, s) v: the spectrum of a*a loses s^2 against 1, one SVD of a keeps s
    tau = PositiveFunctional.tracial(2)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        a = haar_unitary(2, rng) @ np.diag([1.0, s]) @ haar_unitary(2, rng)
        _, svals, vh = np.linalg.svd(a)
        weights = np.real(np.einsum("ij,jk,ik->i", vh, tau.density, vh.conj()))
        want = np.exp(np.sum(weights * np.log(svals)))
        try:
            value = geometric_mean(tau, a, n_powers=n_powers).value
        except NcrepError as err:
            assert not isinstance(err, NotInvertible), err
            continue
        assert abs(value - want) <= 1e-6 * want


def test_a_power_sequence_report_names_its_first_failure():
    with pytest.raises(InvariantViolation, match=r"non-increasing \(1.700000000e\+00 after 1.500000000e\+00\)"):
        GeometricMeanReport(None, 1.0, [2.0, 1.5, 1.7, 1.8, 1.0]).validate()
    with pytest.raises(InconsistencyDetected, match=r"tail 1.500000000e\+00 disagrees .* 1.000000000e\+00"):
        GeometricMeanReport(None, 1.0, [2.0, 1.5]).validate()
    # a slack of 1e-9 max(1, first term) forgives a rise of rounding size
    GeometricMeanReport(None, 1.0, [2.0, 1.0, 1.0 + 1e-9]).validate()


def _outcome(fn, *args, **kwargs):
    """fn's value, or the NcrepError it raised."""
    try:
        return fn(*args, **kwargs)
    except NcrepError as err:
        return err


def _same_failure(got, want):
    return type(got) is type(want) and str(got) == str(want)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.sampled_from(["generic", "unitary", "singular"]), min_size=1, max_size=10),
    st.sampled_from([0, 3, 24]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_the_stacked_means_are_the_means_one_at_a_time(n, kinds, n_powers, is_state, seed):
    # generic entries fail the tail check at few halvings, multiples of a unitary never do,
    # singular entries fail invertibility, and twice a state fails the mass check everywhere
    rng = np.random.default_rng(seed)
    omega = random_state(n, rng)
    if not is_state:
        omega = PositiveFunctional(2.0 * omega.density)
    stack = []
    for kind in kinds:
        if kind == "generic":
            stack.append(random_matrix(n, rng) + 3.0 * np.eye(n))
        elif kind == "unitary":
            stack.append(rng.uniform(0.5, 2.0) * haar_unitary(n, rng))
        else:
            x = random_matrix(n, rng)
            stack.append(x - x[:, :1] @ np.ones((1, n)) if n > 1 else 0.0 * x)
    stack = np.array(stack)
    want = [_outcome(geometric_mean, omega, a, n_powers) for a in stack]
    failures = [out for out in want if isinstance(out, NcrepError)]
    got = _outcome(_geometric_means, omega, stack, n_powers)
    if failures:
        assert _same_failure(got, failures[0])
        return
    values, seqs = got
    assert values.tolist() == [r.value for r in want]
    assert seqs.tolist() == [r.power_sequence for r in want]


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


def _summaries_agree(got, want, exact):
    """Every count and ok identical; max_relative_gap equal, or within 1e-12 unless exact."""
    if isinstance(want, NcrepError):
        return _same_failure(got, want)
    if isinstance(got, NcrepError):
        return False
    gap = abs(got.max_relative_gap - want.max_relative_gap)
    same = replace(got, max_relative_gap=0.0) == replace(want, max_relative_gap=0.0)
    return same and (gap == 0.0 if exact else gap <= 1e-12)


def _draws_per_pass(count, n):
    """A patch of linalg's chunk bound under which jensen_measure_suite takes count draws per pass
    (None: the bound as it is, one pass for every trial count drawn here)."""
    if count is None:
        return nullcontext()
    return mock.patch.object(linalg, "_CHUNK_ELEMENTS", count * 2 * 25 * n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.integers(0, 15), st.sampled_from([None, 1, 4]), st.integers(0, 2**32 - 1))
def test_the_batched_suite_agrees_with_the_draw_by_draw_loop(n, rotated, trials, per_pass, seed):
    inst = random_block_instance(n, np.random.default_rng(seed), conjugate=rotated)
    psi, rho = representing_expectation_tracial(inst.m, inst.state, inst.d, inst.a, inst.phi)
    with _draws_per_pass(per_pass, n):
        got = _outcome(jensen_measure_suite, rho, inst.phi, psi, trials=trials, rng_seed=seed)
    want = _outcome(jensen_suite_per_draw, rho, inst.phi, psi, trials=trials, rng_seed=seed)
    assert _summaries_agree(got, want, exact=not rotated)


class _ChosenFailures:
    """A stand-in for the character on the block upper triangular A of M_n that places failures
    by draw: its domain rejects a when Re a[0, -1] < -1.5 (one residual of 1.0, against
    contains' threshold), and its image of a with Im a[0, -1] > 1 is a with its last column
    scaled by 3e-9: degenerate, or invertible with a spectrum wide enough that 24 halvings of
    the power sequence may miss the tail check."""

    def __init__(self, n):
        a_alg, _, _ = make_block_character(n, [[i] for i in range(n)])
        rejected = lambda x: x[..., 0, -1].real < -1.5
        space = SimpleNamespace(
            flat=a_alg.space.flat, residuals=lambda rows: rejected(rows.reshape(-1, n, n)).astype(float)
        )
        self.domain = SimpleNamespace(
            n=n, dim=a_alg.dim, basis=a_alg.basis, space=space, blocks=a_alg.blocks,
            contains=lambda x: not rejected(np.asarray(x)),
        )

    def apply(self, x):
        out = np.array(x, dtype=complex)
        out[..., -1] *= np.where(out[..., 0, -1].imag > 1.0, 3e-9, 1.0)[..., None]
        return out

    def __call__(self, x):
        return self.apply(x)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(0, 15), st.booleans(), st.sampled_from([None, 1, 4]), st.integers(0, 2**32 - 1))
def test_the_batched_suite_raises_the_first_failure_of_the_draw_by_draw_loop(n, trials, is_state, per_pass, seed):
    phi = _ChosenFailures(n)
    omega = PositiveFunctional.tracial(n)
    if not is_state:
        omega = PositiveFunctional(2.0 * omega.density)
    skip = lambda *args: None
    with mock.patch.object(jensen, "_require_jensen_setting", skip), \
            mock.patch.object(dense_oracle, "_require_jensen_setting", skip):
        with _draws_per_pass(per_pass, n):
            got = _outcome(jensen_measure_suite, omega, phi, None, trials=trials, rng_seed=seed)
        want = _outcome(jensen_suite_per_draw, omega, phi, None, trials=trials, rng_seed=seed)
    event(type(want).__name__ if isinstance(want, NcrepError) else f"ok={want.ok}")
    assert _summaries_agree(got, want, exact=True)
