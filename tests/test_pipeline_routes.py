"""The pipelines' structured steps against the dense routes they replaced.

The matching step solves Tr(r x_j w) = v_j in closed form from A's
orthonormal rows when the weight w is scalar; the projection step projects b
onto {x a : x in A} one mask-row class at a time on a patterned A; and the
expectation onto D' is kept as its Gram factor pair U^T C.  The dense
routes (dense_oracle.lstsq_matched_density, svd_projected_factor and
gram_expectation) must raise the same error class with the same message, or
give results that agree within each step's stated bound, at n = 1..8, on
coordinate and Haar-rotated A, on a rotation too far from unitary to keep
its pattern, and on an A whose pattern is nudged off its span to half and
twice the projection's gate, for scalar and non-scalar weights and for a
rank-deficient a.  The checks read off the factor pair are compared with
the dense statistics.
"""

import re
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_oracle import (
    assert_storage_reads_its_matrix,
    gram_expectation,
    lstsq_matched_density,
    svd_projected_factor,
    with_mask_gap,
)
from ncrep import representing
from ncrep.algebras import (
    _mask_gap,
    block_diagonal_algebra,
    commutant,
    full_matrix_algebra,
    unitary_conjugate_algebra,
)
from ncrep.errors import NcrepError
from ncrep.expectations import (
    _PAIR_FROM,
    ConditionalExpectation,
    _check_preserves,
    _gram_solve,
    _pair_route,
    _preserving_expectation,
    _values_on,
)
from ncrep.instances import haar_unitary, random_central_density, random_density, random_partition
from ncrep.linalg import constraint_system, dagger, hs_norm, psd_sqrt
from ncrep.representing import (
    _ROWS_GAP,
    _block_character,
    _matched_density,
    _polar_factors,
    _projected_factor,
    _projected_rows,
)
from ncrep.states import PositiveFunctional

ROTATIONS = ("coordinate", "haar", "off-unitary", "nudged 0.5", "nudged 2")
WEIGHTS = ("none", "scalar", "commutant")
FACTORS = ("matched", "D", "D rank-deficient", "unmatched")


def _outcome(build):
    """(error class, message with its numbers masked, result) of a build."""
    try:
        result = build()
    except NcrepError as err:
        return type(err), re.sub(r"-?\d\.\d+e[+-]\d+", "#", str(err)), None
    return None, None, result


def _rotation(n, rotation, rng):
    """None, a Haar unitary, or one within unitary_conjugate_algebra's 1e-9 and beyond the 1e-12 a pattern keeps."""
    if rotation == "coordinate":
        return None
    u = haar_unitary(n, rng)
    return u @ np.diag(1.0 + 1e-11 * np.linspace(1.0, 2.0, n)) if rotation == "off-unitary" else u


def _block_isometries(n, blocks, u):
    """The columns of u (the identity when None) on each block: D's rotated block projections are q_t q_t*."""
    u = np.eye(n) if u is None else u
    return [u[:, blk] for blk in blocks]


def _weight(kind, n, blocks, u, rng):
    """None, c I, or sum_t lambda_t q_t q_t*, an element of D' that is not scalar when D has two blocks or more."""
    if kind == "none":
        return None
    if kind == "scalar":
        return rng.uniform(0.1, 10.0) * np.eye(n, dtype=complex)
    w = sum(lam * q @ dagger(q) for lam, q in zip(rng.uniform(0.5, 2.0, len(blocks)), _block_isometries(n, blocks, u)))
    return (w + dagger(w)) / 2


def _row_kappa(a, aw):
    """s_max / s_min over the singular values above the cutoff of g's rows on each row of A's mask, g = u* aw."""
    u, mask = a.pattern
    g = aw if u is None else dagger(u) @ aw
    cut = 1e-9 * np.linalg.norm(g, axis=1).max()
    s = np.concatenate([np.linalg.svd(g[row], compute_uv=False) for row in mask])
    kept = s[s > cut]
    return kept.max() / kept.min()


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8), st.sampled_from(ROTATIONS), st.sampled_from(WEIGHTS), st.integers(0, 2**32 - 1))
def test_the_closed_form_matching_agrees_with_least_squares(n, rotation, weight_kind, seed):
    rng = np.random.default_rng(seed)
    blocks = random_partition(n, rng)
    u = _rotation(n, "haar" if rotation.startswith("nudged") else rotation, rng)
    a, d, phi = _block_character(n, blocks, u)
    if rotation.startswith("nudged") and len(blocks) > 1:
        a = with_mask_gap(a, float(rotation.split()[1]) * 1e-10, rng)  # the matching reads no pattern
    m = full_matrix_algebra(n)
    w = _weight(weight_kind, n, blocks, u, rng)
    values = _values_on(random_density(n, rng), phi.images)
    constraints = a.space.tensor if w is None else a.space.tensor @ w
    with mock.patch.object(representing, "minimal_norm_solution",
                           wraps=representing.minimal_norm_solution) as solves:
        got = _outcome(lambda: _matched_density(a.space, values, m, 0.0, 0, weight=w))
    want = _outcome(lambda: lstsq_matched_density(constraints, values))
    assert got[:2] == want[:2]
    # the closed form wherever the weight is exactly scalar, A's rows being orthonormal to 1e-11 even
    # off-unitary; sum_t lambda_t q_t q_t* is scalar only at n = 1 or for one coordinate block
    assert solves.call_count == (w is not None and bool(np.any(w - w[0, 0] * np.eye(n))))
    if got[0] is None:
        system = constraint_system(constraints)
        residual = np.linalg.norm(system @ got[2].ravel() - values)
        least = np.linalg.svd(system, compute_uv=False)[-1]
        # the closed form is the least-squares solution plus S^+ e, e its residual
        assert hs_norm(got[2] - want[2]) <= residual / least + 1e-12 * max(1.0, hs_norm(want[2]))


def _factors(kind, phi, a, d, m, w, cut, rng):
    """The polar factors (a, b) of a matched density, of an element of D (times cut for the
    rank-deficient kind), or of a random matrix, whose b overlaps ker(Phi)·a once ker(Phi) != 0."""
    n = d.n
    if kind == "unmatched":
        return _polar_factors(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    if kind == "matched":
        values = _values_on(random_density(n, rng), phi.images)
        return _polar_factors(_matched_density(a.space, values, m, 0.0, 0, weight=w))
    r = d.space.from_coords(rng.standard_normal(d.dim) + 1j * rng.standard_normal(d.dim))
    return _polar_factors(r @ cut if kind == "D rank-deficient" else r)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8), st.sampled_from(ROTATIONS), st.sampled_from(WEIGHTS), st.sampled_from(FACTORS),
    st.integers(0, 2**32 - 1),
)
def test_the_row_projection_agrees_with_the_svd_projection(n, rotation, weight_kind, factor_kind, seed):
    rng = np.random.default_rng(seed)
    blocks = random_partition(n, rng)
    assume(factor_kind != "D rank-deficient" or len(blocks) > 1)  # one block has no block to cut
    assume(not rotation.startswith("nudged") or len(blocks) > 1)  # nor an off-mask part to nudge
    nudged = rotation.startswith("nudged")
    u = _rotation(n, "haar" if nudged else rotation, rng)
    a, d, phi = _block_character(n, blocks, u)
    m = full_matrix_algebra(n)
    w = _weight(weight_kind, n, blocks, u, rng)
    last = _block_isometries(n, blocks, u)[-1]
    a_mat, b_mat = _factors(factor_kind, phi, a, d, m, w, np.eye(n) - last @ dagger(last), rng)
    sqw = np.eye(n) if w is None else psd_sqrt(w)
    if nudged:
        target = float(rotation.split()[1]) * _ROWS_GAP / _row_kappa(a, a_mat @ sqw)
        assume(target > 100 * _mask_gap(a) and target < 1e-3 / np.sqrt(a.dim))
        a = with_mask_gap(a, target, rng)
        assert 0.8 * target <= _mask_gap(a) <= 1.25 * target
    rows = _projected_rows(a, a_mat @ sqw, b_mat @ sqw)
    # a rank-deficient a also needs delta s_max below the dense route's cutoff, which at half the
    # gate it need not be: the rank condition of _projected_rows may then send it to the SVD
    if rotation == "coordinate" or (rotation == "nudged 0.5" and factor_kind != "D rank-deficient"):
        assert rows is not None
    if rotation in ("off-unitary", "nudged 2"):
        assert rows is None
    got = _outcome(lambda: _projected_factor(a, phi.kernel, a_mat, b_mat, weight=w))
    want = _outcome(lambda: svd_projected_factor(a, phi.kernel, a_mat, b_mat, weight=w))
    assert got[:2] == want[:2]
    assert (got[0] is None) == (factor_kind != "unmatched" or len(blocks) == 1)
    if got[0] is None:
        bt = b_mat @ sqw
        scale = max(1.0, hs_norm(bt)) * np.linalg.norm(np.linalg.inv(sqw), 2)
        bound = 1e-13 * n * scale
        if rows is not None:
            kappa = _row_kappa(a, a_mat @ sqw)
            bound += (2 * _mask_gap(a) + 1e-15 * n) * kappa * scale
        assert hs_norm(got[2] - want[2]) <= bound


def _commutant_target(n, rotation, rng):
    """D' = commutant(D, M_n) for a D without multiplicity, and D, coordinate, rotated or off-unitary."""
    blocks = random_partition(n, rng)
    d = block_diagonal_algebra(n, blocks)
    u = _rotation(n, rotation, rng)
    if u is not None:
        d = unitary_conjugate_algebra(d, u)
    return commutant(d, full_matrix_algebra(n)), d


def _pair_build(omega, target, m):
    """_preserving_expectation's Gram route kept as its factor pair, whatever the size: validated, then preservation."""
    e = ConditionalExpectation(_gram_solve(omega, target.space), m, target.space, np.eye(m.n), target)
    _check_preserves(e, omega, omega.restricted_density(m))
    return e


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8), st.sampled_from(("coordinate", "haar", "off-unitary")),
    st.sampled_from(("tracial", "central", "noncentral")), st.sampled_from([1e-3, 1.0, 1e3]),
    st.integers(0, 2**32 - 1),
)
def test_the_pair_route_onto_the_relative_commutant_agrees_with_the_gram_route(n, rotation, state, scale, seed):
    rng = np.random.default_rng(seed)
    target, d = _commutant_target(n, rotation, rng)
    m = full_matrix_algebra(n)
    if state == "tracial":
        omega = PositiveFunctional.tracial(n)
    else:
        omega = random_central_density(n, d, rng) if state == "central" else random_density(n, rng)
    omega = PositiveFunctional(scale * omega.density)
    assert _pair_route(_gram_solve(omega, target.space), m) == (n**4 > _PAIR_FROM and target.dim <= n)
    want = _outcome(lambda: gram_expectation(omega, target, m).map_matrix)
    for build in (_preserving_expectation, _pair_build):
        got = _outcome(lambda: build(omega, target, m).map_matrix)
        assert got[:2] == want[:2]
        if got[0] is None:
            assert np.linalg.norm(got[2] - want[2]) <= 1e-12 * max(1.0, np.linalg.norm(want[2]))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_the_checks_read_off_the_pair_match_the_dense_statistics(n, central, seed):
    rng = np.random.default_rng(seed)
    target, d = _commutant_target(n, "haar", rng)
    m = full_matrix_algebra(n)
    omega = random_central_density(n, d, rng) if central else random_density(n, rng)
    pair = _gram_solve(omega, target.space)
    # the pair's gaps are exact; the dense kernel's are upper bounds, exact here (no sketch at q <= n).
    basis = np.concatenate((target.space.tensor, d.space.tensor[:2]))
    for storage in (pair, pair.matrix()):  # the pair and its n^2 x n^2 matrix
        e = ConditionalExpectation(storage, m, target.space, np.eye(n), target, check=False)
        k, bound = assert_storage_reads_its_matrix(e, omega.density, basis, rng)
        # every output lies in the range's span, as the pair's certificate 0 says; the matrix reads its images
        residual = hs_norm(target.space.residuals(e.images))
        assert residual <= bound
        assert e._range_gap(np.linalg.norm(k), max(1.0, np.linalg.norm(k))) == (0.0 if storage is pair else residual)
