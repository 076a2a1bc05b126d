"""Unit-row subspaces: rows that are matrix units E_ij are read by index.

OperatorSubspace.unit_columns finds the column of each unit row once.  On
such rows coords, from_coords, project and residuals gather and scatter
those columns, and every product the matrix route forms is by an exact 0
or 1, so the two routes give the same numbers bit for bit (the sign of a
zero aside, which the matrix route's sums drop).  With M's identity rows,
_local_violation gathers p E_ij k - k E_ij p from the columns and rows of
p and k; each entry is the same difference of two complex products, which
a BLAS kernel may round with a fused multiply-add, so the statistic
matches the gemm route to the last bit of those products.  Rows that are
only close to units, and rotated ones, keep the matrix route.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import broadcast_local_violation
from ncrep import linalg, states
from ncrep.algebras import (
    block_diagonal_algebra,
    block_upper_triangular,
    full_matrix_algebra,
    unitary_conjugate_algebra,
)
from ncrep.instances import haar_unitary, random_block_instance, random_central_density, random_density
from ncrep.linalg import OperatorSubspace, hs_norm
from ncrep.states import PositiveFunctional, sample_projections

EPS = np.finfo(float).eps


def _blocks(labels):
    """The partition of range(n) into the classes of equal labels, in order of first index."""
    classes = {}
    for i, label in enumerate(labels):
        classes.setdefault(label, []).append(i)
    return list(classes.values())


def _state(n, d, kind, rng):
    """A D-central faithful state, a non-central one, or a central one cut to some of D's blocks."""
    if kind == "noncentral":
        return random_density(n, rng)
    omega = random_central_density(n, d, rng)
    if kind == "central" or len(d.blocks) == 1:
        return omega
    keep = np.zeros((n, n))
    for blk in d.blocks[: int(rng.integers(1, len(d.blocks)))]:
        keep[blk, blk] = 1.0
    rho = keep @ omega.density @ keep
    return PositiveFunctional(rho / float(np.trace(rho).real))


def _same_bits(x, y):
    """Equal bit for bit once each zero is given a plus sign (x + 0.0 turns -0.0 into 0.0)."""
    x, y = np.asarray(x) + 0.0, np.asarray(y) + 0.0
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _routes(alg, m, omega, projections, rng):
    """Each subspace operation on alg's rows and the local statistic on (alg, M)."""
    n = alg.n
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rows = np.concatenate([(rng.standard_normal((3, n * n)) + 1j * rng.standard_normal((3, n * n))),
                           alg.space.flat, omega.density.reshape(1, -1)])
    c = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    space = alg.space
    return {
        "coords": space.coords(x),
        "from_coords": space.from_coords(c),
        "project": space.project(omega.density),
        "residuals": space.residuals(rows),
        "local": states._local_violation(omega, projections, alg, m),
    }


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 9).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
    st.booleans(),
    st.sampled_from(["central", "noncentral", "truncated"]),
    st.integers(0, 2**32 - 1),
)
def test_unit_rows_agree_with_the_product_routes(labels, star, kind, seed):
    n = len(labels)
    blocks = _blocks(labels)
    d = block_diagonal_algebra(n, blocks)
    alg = d if star else block_upper_triangular(n, blocks)
    m = full_matrix_algebra(n)
    rng = np.random.default_rng(seed)
    omega = _state(n, d, kind, rng)
    projections = np.stack(sample_projections(d, 16))
    # the construction keeps the columns it wrote, which the detector finds in its rows
    assert np.array_equal(alg.space.unit_columns, np.flatnonzero(alg.pattern[1]))
    assert np.array_equal(linalg._unit_columns(alg.space.flat), alg.space.unit_columns)
    assert np.array_equal(linalg._unit_columns(m.space.flat), m.space.unit_columns)

    fast = _routes(alg, m, omega, projections, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OperatorSubspace, "unit_columns", property(lambda space: None))
        slow = _routes(alg, m, omega, projections, np.random.default_rng(seed))
    for name in ("coords", "from_coords", "project", "residuals"):
        assert _same_bits(fast[name], slow[name]), name
    local, local_gemm = fast["local"], slow["local"]
    assert local == local_gemm or abs(local - local_gemm) <= 4 * EPS * hs_norm(omega.density)
    local_want = broadcast_local_violation(omega, list(projections), alg, m)
    assert abs(local - local_want) <= 1e-12 * max(local_want, hs_norm(omega.density))


def test_a_rotated_D_takes_the_gemm_route(monkeypatch):
    n = 5
    rng = np.random.default_rng(5)
    d = unitary_conjugate_algebra(block_diagonal_algebra(n, [[0, 1, 2], [3, 4]]), haar_unitary(n, rng))
    m = full_matrix_algebra(n)
    omega = random_density(n, rng)
    projections = np.stack(sample_projections(d, 16))
    pairings = []
    pair = states.trace_pairings
    monkeypatch.setattr(states, "trace_pairings", lambda *args: pairings.append(args) or pair(*args))
    got = states._local_violation(omega, projections, d, m)
    assert d.space.unit_columns is None and len(pairings) >= 1
    assert abs(got - broadcast_local_violation(omega, list(projections), d, m)) <= 1e-12 * hs_norm(omega.density)


def _units_with(value, at=(0, 0)):
    """The unit rows of the diagonal algebra of M_4 (columns 0, 5, 10, 15), with one entry set to value."""
    rows = np.eye(16, dtype=complex)[[0, 5, 10, 15]]
    rows[at] = value
    return rows


def test_unit_rows_are_found():
    assert np.array_equal(OperatorSubspace(4, _units_with(1.0)).unit_columns, [0, 5, 10, 15])


@pytest.mark.parametrize("rows", [
    _units_with(np.nextafter(1.0, 2.0)),  # 1 + ulp
    _units_with(np.nextafter(1.0, 0.0)),  # 1 - ulp
    _units_with(1e-300, at=(0, 1)),  # a stray tiny entry
    _units_with(-0.0, at=(0, 1)),  # a signed zero off the unit
    _units_with(complex(1.0, -0.0)),  # 1 - 0j
    _units_with(1j),
    _units_with(-1.0),
    np.eye(16, dtype=complex)[[0, 0, 5]],  # two rows at one column
    np.eye(32, dtype=complex)[[0, 10]][:, ::2],  # unit rows at columns 0 and 5, not contiguous
])
def test_near_unit_rows_are_not_unit_rows(rows):
    assert OperatorSubspace(4, rows).unit_columns is None


def test_unit_rows_in_any_order_give_their_columns():
    cols = np.array([5, 0, 15, 10, 3])
    space = OperatorSubspace(4, np.eye(16, dtype=complex)[cols])
    assert np.array_equal(space.unit_columns, cols)
    assert not linalg._identity_rows(space) and linalg._identity_rows(full_matrix_algebra(4).space)
    x = np.arange(16, dtype=complex).reshape(4, 4)
    assert np.array_equal(space.coords(x), cols.astype(complex))
    assert np.array_equal(space.project(x).ravel()[cols], cols.astype(complex))
    empty = OperatorSubspace(4, np.zeros((0, 16)))  # no rows: every column set unit rows, none taken
    assert empty.unit_columns.size == 0
    assert np.array_equal(empty.residuals(x.reshape(1, -1)), [hs_norm(x)]) and not empty.project(x).any()


@pytest.mark.parametrize("conjugate", [True, False])
def test_finding_unit_rows_allocates_nothing_of_the_rows_size(conjugate):
    # the rotated A at n = 32 has 854 rows of 1024 entries; no array of k n^2 elements, even one byte
    # each, may be formed: the words are counted and read in place
    a = random_block_instance(32, np.random.default_rng(3), conjugate=conjugate).a
    k, width = a.space.flat.shape
    tracemalloc.start()
    try:
        cols = linalg._unit_columns(a.space.flat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cols is None) == conjugate
    assert peak < k * width, (peak, k * width)
