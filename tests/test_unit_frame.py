"""Block checks read in D's unit frame against the exact routes they stand in for.

On a patterned algebra whose rows are its rotated units f_s = u E_s u*
(algebras._unit_frame), linalg.unit_frame_gaps reads a factored map's module
gaps off its factors rotated once into u's frame; _ModuleMap._check_module
keeps them when they pass, and the exact route (_commutator_gaps) decides
otherwise.  A block character's unit defects Y_s = u* Phi(f_s) u come from
its factors conjugated into the frame (SandwichSum.conjugated and at_units)
rather than from its images, the extension check from Psi - Phi read the same
way (_extension_bound), D inside A off the masks (_inclusion_gap) and the
brackets of D's class projections with its basis in commutant(D)
(algebras._pattern_commutant).  The character's fix on D's rows and the
kernel's tau on the rotated units off D's mask are read the same way, from
the factors at the units (DCharacter.fix, _mask_kernel), with no image of a
stack of D's rows or of J's units.

On coordinate D the frame gaps are the exact ones to rounding; on rotated D,
with u a Haar unitary or one whose defect ||u*u - I|| is near the
_UNITARY_DEFECT a pattern keeps, they are never below the exact gaps and
above them by at most the slack unit_frame_gaps derives.  Only rows declared
as units by the code that wrote them have a frame: rows moved off the units,
an SVD's rows and an algebra whose pattern was reassigned take the exact
route, a failing check reports the exact route's message, and the block
pipelines reach none of the routes the frame replaces.  fix and tau equal
tests/dense_oracle.py's stack route bit for bit on a coordinate D and bound
it from above on a rotated one, within the slack their docstrings derive.
unitary_conjugate_algebra writes declared rows from u's columns within
sqrt(5) 2^-53 (1 + eta) of the exact units, and _off_mask's bound on them
is at least the eps an undeclared copy measures.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import stack_fix, stack_kernel_tau
from test_invariant_checks import nudged
from ncrep import algebras, expectations, linalg, representing
from ncrep.algebras import (
    _UNITARY_DEFECT,
    _inclusion_gap,
    _unit_frame,
    _unitary_defect,
    block_diagonal_algebra,
    block_upper_triangular,
    corner_algebra,
    full_matrix_algebra,
    unitary_conjugate_algebra,
)
from ncrep.config import tol
from ncrep.errors import InvariantViolation
from ncrep.expectations import ConditionalExpectation, _preserving_expectation, preserving_expectation
from ncrep.instances import haar_unitary, random_central_density, random_density, random_partition
from ncrep.linalg import Corner, SandwichSum, hs_norm, hs_norms, projection_isometry, unit_frame_gaps
from ncrep.representing import (
    DCharacter,
    _block_character,
    _check_extends_character,
    _extension_bound,
    _extension_gap,
    _multiplicative_from_defects,
    _rotated_unit_images,
    representing_expectation_state,
    representing_expectation_tracial,
)
from ncrep.states import PositiveFunctional

EPS = np.finfo(float).eps
ROTATIONS = ("coordinate", "haar", "near defect")
MODULE_MESSAGE = "bimodule: module property fails by {:.3e}"


def _rotation(n, rotation, rng):
    """None, a Haar unitary, or a Haar unitary stretched to a defect of about half _UNITARY_DEFECT."""
    if rotation == "coordinate":
        return None
    u = haar_unitary(n, rng)
    if rotation == "near defect":
        stretch = np.linspace(1.0, 2.0, n)
        u = u @ np.diag(1.0 + 0.25 * _UNITARY_DEFECT * stretch / np.linalg.norm(stretch))
        assert _UNITARY_DEFECT / 4 < _unitary_defect(u) <= _UNITARY_DEFECT
    return u


def _instance(n, rotation, rng):
    """(A, D, Phi, M) of a random block character, rotated as asked."""
    a, d, phi = _block_character(n, random_partition(n, rng), _rotation(n, rotation, rng))
    return a, d, phi, full_matrix_algebra(n)


def _maps(d, m, phi, rng):
    """The maps whose module gaps are checked on D: the character, the tracial expectation, the
    closed form for a non-central density (unvalidated) and that map again as its dense matrix."""
    e = preserving_expectation(PositiveFunctional.tracial(d.n), d, m)
    off = _preserving_expectation(random_density(d.n, rng), d, m, check=False)
    dense = ConditionalExpectation(off.map_matrix, m, d.space, np.eye(d.n), d, check=False)
    return {"phi": phi, "tracial": e, "noncentral": off, "noncentral dense": dense}


def _slack(mp, frame, exact):
    """How far unit_frame_gaps may read above the exact gaps, from its derivation: its frame read f
    has f <= (1 + eta) gap + 2 eta (1 + eta) N, so for eta <= 1e-12 its bound exceeds the gap by at
    most 3 eta gap + 5 N eta, and by the tail's 2 (1 + eta) tail."""
    eta = frame[3]
    left, right, tail = mp._splitting()
    norms = np.array([hs_norm(left), hs_norm(right)])[:, None]
    return 3 * eta * exact + 5 * norms * eta + 2 * tail * (1 + eta)


def _assert_frame_bounds(d, maps):
    frame = _unit_frame(d)
    assert frame is not None
    for name, mp in maps.items():
        exact = mp.module_gaps()
        got = unit_frame_gaps(*mp._splitting(), frame)
        scale = max(1.0, mp.norm())
        rounding = 16 * d.n * EPS * scale
        assert np.all(exact <= got + rounding), name
        if frame[0] is None:
            assert np.abs(got - exact).max() <= 1e-12 * scale, name
        else:
            assert np.all(got <= exact + _slack(mp, frame, exact) + rounding), name


def _assert_unit_images_agree(phi):
    """The unit defects from the conjugated factors against the images route of the same map as a matrix."""
    a, d = phi.domain, phi.range_alg
    dense = DCharacter(phi.map_matrix, a, d, check=False)
    rows, cols = np.nonzero(a.pattern[1])
    eps_f, eta_f, from_factors = _rotated_unit_images(phi, rows, cols)
    eps_i, eta_i, from_images = _rotated_unit_images(dense, rows, cols)
    everything = slice(None)
    scale = max(1.0, phi.norm())
    assert eta_f == eta_i
    # on declared rows eps is _off_mask's bound, at least what the images route's rotation measures
    assert eps_f == algebras._off_mask(a)[0] and eps_i <= eps_f + 16 * phi.n * EPS
    assert np.abs(from_factors(everything) - from_images(everything)).max() <= 1e-12 * scale
    kappa = phi.norm()
    assert _multiplicative_from_defects(phi, kappa) == _multiplicative_from_defects(dense, kappa)


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("n", range(2, 13))
def test_frame_gaps_and_unit_defects_agree_with_the_exact_routes(n, rotation):
    for seed in range(3):
        rng = np.random.default_rng(100 * n + seed)
        _, d, phi, m = _instance(n, rotation, rng)
        _assert_frame_bounds(d, _maps(d, m, phi, rng))
        _assert_unit_images_agree(phi)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.sampled_from(ROTATIONS), st.integers(0, 2**32 - 1))
def test_frame_reads_bound_the_exact_routes_on_random_instances(n, rotation, seed):
    rng = np.random.default_rng(seed)
    a, d, phi, m = _instance(n, rotation, rng)
    _assert_frame_bounds(d, _maps(d, m, phi, rng))
    _assert_unit_images_agree(phi)
    # D inside A off the masks bounds the residuals; the extension bound bounds the extension gap
    residuals = a.space.residuals(d.space.flat)
    assert np.all(residuals <= _inclusion_gap(a, d) * linalg.hs_norms(d.space.flat) + 16 * n * EPS)
    psi, _ = representing_expectation_tracial(m, PositiveFunctional.tracial(n), d, a, phi)
    bound = _extension_bound(psi, phi)
    if n**4 > expectations._BLOCK_FROM:
        assert _extension_gap(psi, phi) <= bound + 16 * n * EPS * max(1.0, phi.norm()) <= tol(1e-9)
    else:
        assert bound is None


def test_rows_that_are_not_units_take_the_exact_route(monkeypatch):
    # a coordinate D cut to two of its blocks by an isometry v w, w a Haar unitary of M_6, whose columns
    # are no coordinate vectors: the corner keeps a pattern, but its rows are an SVD's mixtures of the
    # units, declared by nobody, so it has no frame and the exact route decides
    n = 8
    d = block_diagonal_algebra(n, [[0, 1, 2], [3, 4, 5], [6, 7]])
    v = projection_isometry(np.diag([1.0] * 6 + [0.0] * 2))
    corner = Corner(v @ haar_unitary(6, np.random.default_rng(6)))
    d_c = corner_algebra(d, corner)
    assert d_c.pattern is not None and _unit_frame(d_c) is None
    calls = []
    exact = linalg._commutator_gaps
    monkeypatch.setattr(linalg, "_commutator_gaps", lambda *args: calls.append(1) or exact(*args))
    omega = random_central_density(6, d_c, np.random.default_rng(3))
    e = _preserving_expectation(omega, d_c, full_matrix_algebra(6))
    assert isinstance(e.factors, SandwichSum) and calls
    # the commutant's class projections are bracketed with the basis, as they are with no frame
    brackets = []
    commutes_with = algebras._commutes_with
    monkeypatch.setattr(algebras, "_commutes_with", lambda *args: brackets.append(1) or commutes_with(*args))
    found = algebras._pattern_commutant(d_c, None)
    assert brackets and linalg.same_subspace(found.space, algebras._solve_commutant(d_c.space.tensor, None).space)


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("n", (5, 6, 8))
def test_a_failing_module_check_reports_the_exact_routes_first_element(n, rotation, monkeypatch):
    # the closed form for a non-central density is no bimodule map: read in the frame or by the exact
    # route alone, the check raises the same InvariantViolation with the same first failing gap
    rng = np.random.default_rng(n)
    _, d, _, m = _instance(n, rotation, rng)
    e = _preserving_expectation(random_density(n, rng), d, m, check=False)
    bound = tol(1e-8) * max(1.0, e.norm()) * np.sqrt(n)

    def message():
        with pytest.raises(InvariantViolation) as err:
            e._check_module(MODULE_MESSAGE, bound)
        return str(err.value)

    framed = message()
    assert framed == MODULE_MESSAGE.format(e.module_gaps().T.ravel()[np.argmax(e.module_gaps().T.ravel() > bound)])
    monkeypatch.setattr(expectations, "_unit_frame", lambda alg: None)
    assert message() == framed


def test_a_failing_extension_check_reports_the_exact_gap():
    # the closed form for a non-central density does not extend Phi off D's blocks
    n = 6
    rng = np.random.default_rng(6)
    a, d, phi, m = _instance(n, "haar", rng)
    psi = _preserving_expectation(random_density(n, rng), d, m, check=False)
    gap = _extension_gap(psi, phi)
    assert _extension_bound(psi, phi) >= gap > tol(1e-7) * max(1.0, phi.norm())
    with pytest.raises(InvariantViolation, match=re.escape(f"by {gap:.3e}") + "$"):
        _check_extends_character(psi, phi)


def test_inclusion_gap_needs_one_rotation_and_nested_masks():
    n = 5
    rng = np.random.default_rng(5)
    a, d, _, _ = _instance(n, "haar", rng)
    assert _inclusion_gap(a, d) <= 1e-12
    other = unitary_conjugate_algebra(block_diagonal_algebra(n, [[0, 1], [2, 3, 4]]), haar_unitary(n, rng))
    assert _inclusion_gap(a, other) == np.inf
    # one block: D's mask covers every entry, A's mask of a two-block triangular algebra does not
    assert _inclusion_gap(block_upper_triangular(n, [[0, 1], [2, 3, 4]]), block_diagonal_algebra(n, [list(range(n))])) == np.inf


@pytest.mark.parametrize("rotation", ("coordinate", "haar"))
@pytest.mark.parametrize("n", (5, 8, 10))
def test_block_pipelines_reach_none_of_the_replaced_routes(n, rotation, monkeypatch):
    # the gaps on D' (no pattern, a dense matrix below _PAIR_FROM) still take the exact route
    gap_bases, coordinate_calls, residual_spaces, bracket_stacks = [], [], [], []

    def gaps(fn):
        def wrapped(left, right, tail, basis):
            gap_bases.append(basis)
            return fn(left, right, tail, basis)
        return wrapped

    def coordinates(alg):
        coordinate_calls.append(alg)
        return algebras._pattern_coordinates(alg)

    monkeypatch.setattr(linalg, "_commutator_gaps", gaps(linalg._commutator_gaps))
    monkeypatch.setattr(representing, "_pattern_coordinates", coordinates)
    commutes_with = algebras._commutes_with
    monkeypatch.setattr(algebras, "_commutes_with",
                        lambda flat, stack, threshold: bracket_stacks.append(stack) or commutes_with(flat, stack, threshold))
    residuals = linalg.OperatorSubspace.residuals

    def spied(space, rows):
        residual_spaces.append(space)
        return residuals(space, rows)

    monkeypatch.setattr(linalg.OperatorSubspace, "residuals", spied)
    rng = np.random.default_rng(n)
    a, d, phi, m = _instance(n, rotation, rng)
    omega = random_central_density(n, d, rng)
    representing_expectation_tracial(m, PositiveFunctional.tracial(n), d, a, phi)
    representing_expectation_state(m, omega, d, a, phi)
    assert not any(np.shares_memory(basis, d.space.flat) for basis in gap_bases)
    assert not any(np.shares_memory(stack, d.space.flat) for stack in bracket_stacks)
    assert not coordinate_calls
    assert not any(space is a.space for space in residual_spaces)
    assert algebras._off_mask(a) is not None


def _moved_rows(d, size, rng):
    """D itself for size 0 or a full mask, else test_invariant_checks.nudged: a copy whose rows lie size
    from the frame's units, which declares no units and so has no frame."""
    if size == 0 or d.pattern[1].all():
        return d
    moved = nudged(d, size, rng)
    assert _unit_frame(moved) is None
    return moved


def _fix_slack(phi, frame, exact):
    """How far fix may read above the stack's values, from its derivation: with
    r_s = ||Phi'(E_s) - E_s|| <= (1 + eta) exact_s + eta (2 + eta), its bound exceeds exact_s by at
    most (2 eta exact_s + 2 eta (2 + eta)) / (1 - eta)."""
    eta = frame[3]
    return (2 * eta * exact + 2 * eta * (2 + eta)) / (1 - eta)


def _assert_fix_and_tau(phi):
    """fix and the kernel's tau against the stack route: bit for bit on D's declared coordinate units,
    and otherwise at least the stack's values and above them by at most the derived slack (0 where
    the exact route decides), up to rounding."""
    frame = _unit_frame(phi.range_alg)
    exact, fix = stack_fix(phi), phi.fix
    rounding = 16 * phi.n * EPS * max(1.0, phi.norm())
    if frame is not None and frame[0] is None:
        assert np.array_equal(fix, exact)
    else:
        slack = 0.0 if frame is None else _fix_slack(phi, frame, exact)
        assert np.all(exact - rounding <= fix) and np.all(fix <= exact + slack + rounding)
    found = representing._mask_kernel(phi)
    assert found is not None
    tau, want = found[1], stack_kernel_tau(phi)
    u = phi.domain.pattern[0]
    if u is None:
        assert tau == want
    else:
        eta = _unitary_defect(u)
        assert want - rounding <= tau <= want + 3 * eta * want + rounding


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("n", range(5, 13))
def test_fix_and_tau_at_the_units_agree_with_the_stack_route(n, rotation):
    for seed in range(3):
        _, _, phi, _ = _instance(n, rotation, np.random.default_rng(100 * n + seed))
        _assert_fix_and_tau(phi)


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 12), st.sampled_from(ROTATIONS), st.sampled_from((0.0, 1e-10, 1e-6)),
       st.integers(0, 2**32 - 1))
def test_fix_and_tau_bound_the_stack_route_on_random_instances(n, rotation, size, seed):
    # with D's rows moved off the frame by size, however little: moved rows are no declared units, so
    # fix is the stack route's and tau, read at the units themselves, is unchanged
    rng = np.random.default_rng(seed)
    a, d, phi, _ = _instance(n, rotation, rng)
    moved = _moved_rows(d, size, rng)
    _assert_fix_and_tau(DCharacter(phi.factors, a, moved, check=False))


def _validation_message(phi):
    """The InvariantViolation DCharacter raises on phi's A and D, or None when it validates."""
    try:
        DCharacter(phi.factors, phi.domain, phi.range_alg)
    except InvariantViolation as err:
        return str(err)
    return None


@pytest.mark.parametrize("rotation", ("haar", "near defect"))
def test_rows_far_off_the_frame_take_the_exact_route(rotation):
    # rows moved off the units, near or far, have no frame: fix is the images of D's rows, rows near
    # the units validate, and rows far from them fail at the first element the exact routes give
    n = 8
    rng = np.random.default_rng(8)
    a, d, phi, _ = _instance(n, rotation, rng)
    near, far = (DCharacter(phi.factors, a, _moved_rows(d, size, rng), check=False) for size in (1e-10, 1e-6))
    for moved in (near, far):
        assert np.array_equal(moved.fix, moved._moved(moved.range_alg.space))
    assert near.fix.max() <= tol(1e-8) < far.fix.max() and _validation_message(near) is None
    rows = far.range_alg.space.flat
    allowed = tol(1e-8) * np.maximum(1.0, hs_norms(rows))
    outside, moves = a.space.residuals(rows), stack_fix(far)
    first = int(np.argmax((outside > allowed) | (moves > allowed)))
    want = ("range: D is not inside A" if outside[first] > allowed[first]
            else f"fixes D: Phi moves a D element by {moves[first]:.3e}")
    assert _validation_message(far) == want


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("n", (5, 8))
def test_a_character_moving_D_units_reports_the_stack_routes_first_element(n, rotation, monkeypatch):
    # Phi plus the pairs (c f_ii, f_jj), f_ii = u E_ii u*, moves the unit f_ij of D by c and every other
    # unit by O(eta c): two units of D, the later one by more; unital, so the fix check fails first
    rng = np.random.default_rng(n)
    u = _rotation(n, rotation, rng)
    a, d, phi = _block_character(n, [[0, 1, 2], list(range(3, n))], u)
    w = np.eye(n) if u is None else u
    moves = ((1e-6, 0, 1), (1e-5, 3, 4))
    left = np.concatenate((phi.factors.left, [c * np.outer(w[:, i], w[:, i].conj()) for c, i, _ in moves]))
    right = np.concatenate((phi.factors.right, [np.outer(w[:, j], w[:, j].conj()) for _, _, j in moves]))
    moved = SandwichSum(left, right)
    exact = stack_fix(DCharacter(moved, a, d, check=False))
    allowed = tol(1e-8) * np.maximum(1.0, hs_norms(d.space.flat))
    first = int(np.argmax(exact > allowed))
    assert (d.pattern[1].ravel().nonzero()[0][first], exact[first] > allowed[first]) == (1, True)
    message = re.escape(f"fixes D: Phi moves a D element by {exact[first]:.3e}") + "$"
    with pytest.raises(InvariantViolation, match=message):
        DCharacter(moved, a, d)
    monkeypatch.setattr(representing, "_BLOCK_FROM", n**4)  # the stack route alone
    with pytest.raises(InvariantViolation, match=message):
        DCharacter(moved, a, d)


@pytest.mark.parametrize("rotation", ("coordinate", "haar"))
def test_the_build_applies_phi_to_no_stack_of_D_rows_or_J_units(rotation, monkeypatch):
    n = 16
    inputs = []
    call = SandwichSum.__call__
    monkeypatch.setattr(SandwichSum, "__call__", lambda self, x: inputs.append(np.shape(x)) or call(self, x))
    u = _rotation(n, rotation, np.random.default_rng(n))
    a, d, phi = _block_character(n, [list(range(6)), list(range(6, 11)), list(range(11, 16))], u)
    assert phi.kernel_tau is not None and min(d.dim, phi.kernel.size) > 8
    # the unital check's identity and the contraction check's eight draws, and nothing else
    assert inputs == [(n, n), (8, n, n)]


def _rotated(alg, rotations, rng):
    """alg rotated once or twice by Haar unitaries, by unitary_conjugate_algebra."""
    for _ in range(rotations):
        alg = unitary_conjugate_algebra(alg, haar_unitary(alg.n, rng))
    return alg


def _undeclared(alg):
    """An object over the same rows and pattern that declares no units."""
    copy = type(alg)(linalg.OperatorSubspace(alg.n, alg.space.flat), check=False)
    copy.pattern = alg.pattern
    return copy


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.sampled_from((1, 2)), st.booleans(), st.integers(0, 2**32 - 1))
def test_declared_rotated_rows_are_the_units_to_one_product(n, rotations, star, seed):
    # each entry is one complex product of u's entries, which rounds within sqrt(5) 2^-53 of its value:
    # the rows lie that close, times (1 + eta), to the exact units (formed in long double), and within
    # twice that of the gemm rotation of an undeclared coordinate copy, whose entries are one product too
    rng = np.random.default_rng(seed)
    blocks = random_partition(n, rng)
    base = (block_diagonal_algebra if star else block_upper_triangular)(n, blocks)
    alg = _rotated(base, rotations, rng)
    u, mask = alg.pattern
    assert _unit_frame(alg) is not None and alg.space.unit_columns is None
    eta = _unitary_defect(u)
    rows, cols = np.nonzero(mask)
    wide = u.astype(np.clongdouble)
    exact = (wide[:, rows].T[:, :, None] * wide[:, cols].conj().T[:, None, :]).reshape(alg.dim, -1)
    one_product = np.sqrt(5.0) * (2.0**-53 + np.finfo(np.longdouble).eps) * (1 + eta)
    assert np.all(hs_norms((alg.space.flat - exact).astype(complex)) <= one_product)
    gemm = unitary_conjugate_algebra(_undeclared(base), u)
    assert _unit_frame(gemm) is None
    assert np.all(hs_norms(alg.space.flat - gemm.space.flat) <= 2 * one_product)
    # the eps bound read off the declared rows is at least what the rotation measures on a copy
    eps, eta_kept = algebras._off_mask(alg)
    assert eta_kept == eta and eps >= algebras._off_mask(_undeclared(alg))[0]


@pytest.mark.parametrize("rotation", ("haar", "near defect"))
def test_a_reassigned_pattern_drops_the_frame(rotation, monkeypatch):
    # the declaration is tied to the pattern the rows were written from: a new pattern, even an equal
    # one, leaves no frame, and every check then takes its exact route with the same verdict and the
    # same first failing element
    n = 6
    rng = np.random.default_rng(6)
    a, d, phi, m = _instance(n, rotation, rng)
    e = _preserving_expectation(random_density(n, rng), d, m, check=False)
    bound = tol(1e-8) * max(1.0, e.norm()) * np.sqrt(n)
    gaps = []
    exact = linalg._commutator_gaps
    monkeypatch.setattr(linalg, "_commutator_gaps", lambda *args: gaps.append(args[-1]) or exact(*args))

    def verdicts():
        """The character's fix and the module checks' exact-route calls on a fresh build, and the
        failing module check's message."""
        del gaps[:]
        built = DCharacter(phi.factors, a, d)
        calls = len(gaps)
        with pytest.raises(InvariantViolation) as err:
            e._check_module(MODULE_MESSAGE, bound)
        return built.fix, built, calls, str(err.value)

    framed_fix, _, framed_calls, framed = verdicts()
    for alg in (a, d):
        alg.pattern = (alg.pattern[0], alg.pattern[1])
        assert _unit_frame(alg) is None
    fix, built, calls, message = verdicts()
    assert framed_calls == 0 < calls and message == framed
    assert np.array_equal(fix, built._moved(d.space)) and np.all(fix <= framed_fix + 16 * n * EPS)


def test_the_rotated_build_rotates_no_row_and_conjugates_phi_once(monkeypatch):
    # declared rows are written from u's columns and read with no rotation: neither the coordinate
    # A and D nor their rotations have their rows read as a stack, and Phi's factors are conjugated
    # into u's frame once, for the build and both pipelines
    n = 16
    blocks = [list(range(6)), list(range(6, 11)), list(range(11, 16))]
    read, conjugated = [], []
    tensor, conjugate = linalg.OperatorSubspace.tensor, SandwichSum.conjugated
    monkeypatch.setattr(linalg.OperatorSubspace, "tensor", property(lambda s: read.append(s.size) or tensor.fget(s)))
    monkeypatch.setattr(SandwichSum, "conjugated", lambda self, u: conjugated.append(self) or conjugate(self, u))
    a, d, phi = _block_character(n, blocks, haar_unitary(n, np.random.default_rng(n)))
    assert a.space.unit_columns is None and _unit_frame(a) is not None and _unit_frame(d) is not None
    assert a.dim not in read and d.dim not in read
    m = full_matrix_algebra(n)
    psi, _ = representing_expectation_tracial(m, PositiveFunctional.tracial(n), d, a, phi)
    representing_expectation_state(m, random_central_density(n, d, np.random.default_rng(1)), d, a, phi)
    assert sum(f is phi.factors for f in conjugated) == 1
    # Psi - Phi from the kept Phi' beside Psi's conjugated pairs, as from conjugating the pairs together
    u = a.pattern[0]
    f, g = psi.factors, phi.factors
    together = SandwichSum(np.concatenate((f.left, g.left)), np.concatenate((f.right, -g.right)))
    rows, cols = np.nonzero(a.pattern[1])
    want = hs_norm(conjugate(together, u).at_units(rows, cols)) / (1 - _unitary_defect(u))
    assert abs(_extension_bound(psi, phi) - want) <= 4 * EPS * want
