"""The closed-form expectation onto a block D against the Gram route it replaced.

Onto a D = u(sum_t M_k_t)u* whose pattern _mask_gap certifies, the package
solves the omega-preserving expectation block by block and keeps it as its
r block factors; dense_oracle.gram_expectation is the (dim D)^2 Gram solve
with the n^2 x n^2 map and its dense validation.  Both must raise the same
error class with the same message, or build maps that agree to rounding
plus the stated _mask_gap term, at every size whatever route the package
picks there, on coordinate and Haar-rotated D, on a
rotation too far from unitary to keep its pattern and on a D nudged off its
mask on either side of the route's threshold, for tracial, D-central,
non-central and truncated states at three scales.  The checks read off the
factors are compared with the dense statistics, the block build's memory
is pinned at n = 16, and its range certificate falls back to the dense
residual beyond its threshold.
"""

import re
import tracemalloc

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_oracle import gram_expectation, with_mask_gap
from ncrep.algebras import (
    _mask_gap,
    block_diagonal_algebra,
    full_matrix_algebra,
    unitary_conjugate_algebra,
)
from ncrep.errors import NcrepError
from ncrep.expectations import (
    _BLOCK_FROM,
    _BLOCK_GAP,
    ConditionalExpectation,
    _block_factors,
    _check_preserves,
    _block_route,
    _preserving_expectation,
    preserving_expectation,
)
from ncrep.instances import haar_unitary, random_central_density, random_density, random_partition
from ncrep.linalg import bimodule_gaps, dagger, hs_norm
from ncrep.states import PositiveFunctional

ROTATIONS = ("coordinate", "haar", "off-unitary", "nudged 0.5", "nudged 2")
STATES = ("tracial", "central", "noncentral", "truncated")


def _nudged(d, factor, rng):
    """d's span with its pattern's rotation moved so that _mask_gap is factor times _BLOCK_GAP, validated."""
    alg = with_mask_gap(d, factor * _BLOCK_GAP, rng)
    alg.validate()
    return alg


def _target(n, blocks, rotation, rng):
    d = block_diagonal_algebra(n, blocks)
    if rotation == "coordinate":
        return d
    if rotation == "off-unitary":
        # within unitary_conjugate_algebra's 1e-9, beyond the 1e-12 a pattern keeps
        u = haar_unitary(n, rng) @ np.diag(1.0 + 1e-11 * np.linspace(1.0, 2.0, n))
        return unitary_conjugate_algebra(d, u)
    d = unitary_conjugate_algebra(d, haar_unitary(n, rng))
    return d if rotation == "haar" else _nudged(d, float(rotation.split()[1]), rng)


def _state(kind, n, blocks, d, rng):
    if kind == "tracial":
        return PositiveFunctional.tracial(n)
    if kind == "noncentral":
        return random_density(n, rng)
    rho = random_central_density(n, d, rng).density
    if kind == "truncated":
        # cut to all blocks but the last, in D's own rotation; a single block loses its last index
        u = np.eye(n) if d.pattern is None or d.pattern[0] is None else d.pattern[0]
        kept = [i for blk in blocks[:-1] for i in blk] if len(blocks) > 1 else list(range(n - 1))
        cut = u[:, kept] @ dagger(u[:, kept])
        rho = cut @ rho @ cut
    return PositiveFunctional(rho)


def _block_build(omega, d, m):
    """_preserving_expectation's closed form, whatever the size: the factors, validated, then preservation."""
    e = ConditionalExpectation(_block_factors(omega, d), m, d.space, np.eye(m.n), d)
    _check_preserves(e, omega, omega.restricted_density(m))
    return e


def _outcome(build):
    """(error class, message with its numbers masked, map matrix) of a build."""
    try:
        e = build()
    except NcrepError as err:
        return type(err), re.sub(r"-?\d\.\d+e[+-]\d+", "#", str(err)), None
    return None, None, e.map_matrix


def _kappa(omega, d):
    """||rho|| over the least eigenvalue of the diagonal blocks of u* rho u."""
    u, mask = d.pattern
    rho = omega.density if u is None else dagger(u) @ omega.density @ u
    labels = mask.argmax(axis=1)
    least = min(np.linalg.eigvalsh(rho[np.ix_(labels == c, labels == c)])[0] for c in set(labels.tolist()))
    return np.linalg.norm(omega.density, 2) / least


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 8), st.sampled_from(ROTATIONS), st.sampled_from(STATES),
    st.sampled_from([1e-3, 1.0, 1e3]), st.integers(0, 2**32 - 1),
)
def test_the_block_route_agrees_with_the_gram_route(n, rotation, state, scale, seed):
    rng = np.random.default_rng(seed)
    blocks = random_partition(n, rng)
    assume(not rotation.startswith("nudged") or len(blocks) > 1)  # one block has no off-mask part to nudge
    d, m = _target(n, blocks, rotation, rng), full_matrix_algebra(n)
    omega = _state(state, n, blocks, d, rng)
    omega = PositiveFunctional(scale * omega.density)
    delta = _mask_gap(d)
    if rotation.startswith("nudged"):
        want_delta = float(rotation.split()[1]) * _BLOCK_GAP
        assert 0.8 * want_delta <= delta <= 1.25 * want_delta
    certified = rotation in ("coordinate", "haar", "nudged 0.5")
    assert _block_route(d, m) == (certified and n**4 > _BLOCK_FROM)
    want = _outcome(lambda: gram_expectation(omega, d, m))
    # the package's choice of route, and at every size the closed form wherever the pattern admits it
    builds = [lambda: _preserving_expectation(omega, d, m)] + [lambda: _block_build(omega, d, m)] * certified
    for build in builds:
        got = _outcome(build)
        assert got[:2] == want[:2]
        if got[0] is None:
            bound = 1e-12 * max(1.0, np.linalg.norm(want[2]))
            if certified:
                bound += 4 * n * _kappa(omega, d) ** 1.5 * delta
            assert np.linalg.norm(got[2] - want[2]) <= bound


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.booleans(), st.integers(0, 2**32 - 1))
def test_the_checks_read_off_the_factors_match_the_dense_statistics(n, central, seed):
    rng = np.random.default_rng(seed)
    blocks = random_partition(n, rng)
    d = unitary_conjugate_algebra(block_diagonal_algebra(n, blocks), haar_unitary(n, rng))
    m = full_matrix_algebra(n)
    omega = random_central_density(n, d, rng) if central else random_density(n, rng)
    e = ConditionalExpectation(_block_factors(omega, d), m, d.space, np.eye(n), d, check=False)
    k = e.factors.matrix()
    bound = 1e-12 * max(1.0, np.linalg.norm(k))
    assert abs(e.factors.norm() - np.linalg.norm(k)) <= bound
    assert abs(e._idempotence_defect() - np.linalg.norm(k @ k - k)) <= bound
    x = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    assert np.linalg.norm(e.apply(x) - (x.reshape(3, -1) @ k.T).reshape(x.shape)) <= bound * 10
    rho = omega.density
    dense_pull = (k.T @ rho.T.ravel()).reshape(n, n).T
    assert np.linalg.norm(e.pullback_density(rho) - (dense_pull + dagger(dense_pull)) / 2) <= bound
    gaps = e.factors.module_gaps(d.space.tensor)
    assert np.abs(gaps - bimodule_gaps(k, d.space.tensor)).max() <= 1e-12 * max(1.0, np.linalg.norm(k)) * n
    # every output lies in D's span to within the certified bound, and the certificate passes
    residual = hs_norm(d.space.residuals(e.images))
    assert residual <= e._range_gap(np.linalg.norm(k), max(1.0, np.linalg.norm(k))) + bound


def test_beyond_its_threshold_the_range_certificate_leaves_the_verdict_to_the_dense_residual():
    rng = np.random.default_rng(4)
    n = 6
    d = unitary_conjugate_algebra(block_diagonal_algebra(n, [[0, 1], [2, 3, 4], [5]]), haar_unitary(n, rng))
    nudged = _nudged(d, 2.0, rng)
    m = full_matrix_algebra(n)
    omega = random_central_density(n, nudged, rng)
    e = ConditionalExpectation(_block_factors(omega, nudged), m, nudged.space, np.eye(n), nudged)
    scale = max(1.0, np.linalg.norm(e.map_matrix))
    assert 3 * _mask_gap(nudged) * e.factors.norm() > 1e-8 * scale / 2
    residual = hs_norm(nudged.space.residuals(e.images))
    assert 0.0 < residual < 1e-8 * scale
    assert np.isclose(e._range_gap(e.factors.norm(), scale), residual, rtol=1e-6, atol=0.0)
    assert e.validated


def test_a_block_expectation_and_its_validation_form_no_n4_array_at_n16():
    # the map's n^2 x n^2 matrix alone is 1 MB at n = 16; the block route keeps three pairs of
    # 16 x 16 factors.  The public entry is measured with its D-centrality gate, on a fresh
    # functional: the gate reads max |rho d - d rho| off M's identity rows, and omega's
    # projection onto M is its own entries, so neither forms an n^4 array
    n = 16
    d = block_diagonal_algebra(n, [list(range(0, 5)), list(range(5, 10)), list(range(10, 16))])
    d = unitary_conjugate_algebra(d, haar_unitary(n, np.random.default_rng(16)))
    m = full_matrix_algebra(n)
    omega = random_central_density(n, d, np.random.default_rng(3))
    peaks = []
    for build in (preserving_expectation, gram_expectation):
        fresh = PositiveFunctional(omega.density)
        tracemalloc.start()
        try:
            build(fresh, d, m).validate()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.0 < peaks[1], peaks
