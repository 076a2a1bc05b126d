"""Unit-row subspaces: rows that are matrix units E_ij are read by index.

OperatorSubspace.declared is handed out in one place, algebras._unit_space
(the block constructions, full_matrix_algebra and a corner cut by exact
coordinate vectors), and linalg writes the rows on first read; nothing is
read off the rows' bits, so any other space, even one over the same rows, has None
(dense_oracle.undeclared).  On declared coordinate rows coords,
from_coords, project and residuals gather and scatter those columns, and
every product the matrix route forms is by an exact 0 or 1, so the two
routes give the same numbers bit for bit (the sign of a zero aside, which
the matrix route's sums drop).  So does is_D_central's bilinear statistic
read off rho on an equivalence relation's units.  Its commutator norms, the
[e, D] gap and the modular leaks are sums of nonnegative squares read by
index, the products' terms summed in another order.  With M's identity
rows, _local_violation gathers p E_ij k - k E_ij p from the columns and
rows of p and k, on a symmetric mask for i <= j alone; each entry is the
same difference of two complex products, which a BLAS kernel may round
with a fused multiply-add.  Rotated rows, and rows only close to units,
keep the matrix route, which is the oracle here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import broadcast_local_violation, undeclared
from ncrep import states
from ncrep.algebras import (
    _coordinate_corner,
    _coordinate_mask,
    _pattern_coordinates,
    _unit_frame,
    block_diagonal_algebra,
    block_upper_triangular,
    full_matrix_algebra,
    unitary_conjugate_algebra,
)
from ncrep.instances import haar_unitary, random_central_density, random_density
from ncrep.linalg import Corner, OperatorSubspace, hs_norm, orthonormalize, same_subspace
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
    """Each subspace operation on alg's rows, and each probe of a state that reads D's units: both
    is_D_central statistics, the [e, D] gap behind _support_commutes, the local statistic and, for a
    faithful state, both modular leaks."""
    space = alg.space
    n = space.ambient_dim
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rows = np.concatenate([(rng.standard_normal((3, n * n)) + 1j * rng.standard_normal((3, n * n))),
                           space.flat, omega.density.reshape(1, -1)])
    c = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
    routes = {
        "coords": space.coords(x),
        "from_coords": space.from_coords(c),
        "project": space.project(omega.density),
        "residuals": space.residuals(rows),
        "central": states._central_violation(omega, alg, m),
        "central commutator": states._commutation_gap(omega.restricted_density(m), alg),
        "support commutes": states._commutation_gap(omega.support, alg),
        "local": states._local_violation(omega, projections, alg, m),
    }
    if omega.is_faithful:
        routes["modular"], routes["modular sampled"] = states._modular_leaks(omega, alg, omega.spectrum.apply(np.log))
    return routes


# the reads of a max entry, bit for bit the products' numbers
MAX_ENTRY = ("coords", "from_coords", "project", "residuals", "central")
# the reads of a sum of nonnegative squares, at most n^2 terms each, summed in another order than the
# products' hs_norms: within 2 n^2 ulps of the larger, relative
SUMS = ("central commutator", "support commutes", "modular", "modular sampled")


def _sums_agree(got, want, n):
    return abs(got - want) <= 2 * n * n * EPS * max(got, want)


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
    # the constructions declare the units they wrote; a space over the same rows declares none
    assert alg.space.declared is alg.pattern and _coordinate_mask(alg) is alg.pattern[1]
    assert _coordinate_mask(m).all()
    bare = undeclared(alg)
    assert bare.space.declared is None and _coordinate_mask(bare) is None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "_BLOCK_FROM", 0)  # every n reads by unit
        fast = _routes(alg, m, omega, projections, np.random.default_rng(seed))
        copy = _routes(bare, m, omega, projections, np.random.default_rng(seed))
        slow = _routes(bare, undeclared(m), omega, projections, np.random.default_rng(seed))
    assert fast.keys() == slow.keys() == copy.keys()
    for name in MAX_ENTRY:
        assert _same_bits(fast[name], slow[name]) and _same_bits(fast[name], copy[name]), name
    for name in SUMS:
        if name in fast:
            assert _sums_agree(fast[name], slow[name], n) and _sums_agree(fast[name], copy[name], n), name
    # the local statistic: on a symmetric mask the units with i <= j alone, on k's Hermitian part, which
    # moves each entry by the asymmetry of p rho p's rounding; otherwise every unit, to the last bit of
    # the two products in each entry
    local, local_gemm = fast["local"], slow["local"]
    assert local == local_gemm or abs(local - local_gemm) <= 4 * EPS * hs_norm(omega.density)
    local_want = broadcast_local_violation(omega, list(projections), alg, m)
    assert abs(local - local_want) <= 1e-12 * max(local_want, hs_norm(omega.density))

    # a corner cut by exact coordinate vectors, in any order, is the sub-mask's declared units
    keep = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    corner = Corner(np.eye(n, dtype=complex)[:, keep])
    compressed = _coordinate_corner(alg, corner)
    sub = alg.pattern[1][np.ix_(keep, keep)]
    assert compressed.pattern is compressed.space.declared and np.array_equal(_coordinate_mask(compressed), sub)
    assert same_subspace(compressed.space, orthonormalize(corner.compress(alg.space.tensor)))
    assert _coordinate_corner(bare, corner) is None


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
    assert _coordinate_mask(d) is None and len(pairings) >= 1
    assert abs(got - broadcast_local_violation(omega, list(projections), d, m)) <= 1e-12 * hs_norm(omega.density)


def _units_with(value, at=(0, 0)):
    """The unit rows of the diagonal algebra of M_4 (columns 0, 5, 10, 15), with one entry set to value."""
    rows = np.eye(16, dtype=complex)[[0, 5, 10, 15]]
    rows[at] = value
    return rows


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
    np.zeros((0, 16), dtype=complex),  # no rows
])
def test_near_unit_rows_are_not_unit_rows(rows):
    # no space is scanned: rows that were not declared take the products, whatever their bits
    space = OperatorSubspace(4, rows)
    x = np.arange(16, dtype=complex).reshape(4, 4) * (1 + 1j)
    assert space.declared is None
    assert _same_bits(space.coords(x), np.conj(space.flat @ np.conj(x.ravel())))
    assert _same_bits(space.project(x), (space.coords(x) @ space.flat).reshape(4, 4))


def test_declared_rotated_units_take_no_coordinate_route():
    # unitary_conjugate_algebra declares the rotated units it writes, which are no coordinate units:
    # the readers that need those read _coordinate_mask, so the rotated D is rotated for its
    # coordinates, read by its basis in the centrality probes and cut by an SVD at a coordinate corner
    n = 6
    d = block_diagonal_algebra(n, [[0, 1, 2], [3, 4], [5]])
    rotated = unitary_conjugate_algebra(d, haar_unitary(n, np.random.default_rng(6)))
    assert _unit_frame(rotated) is not None and _coordinate_mask(rotated) is None
    coords, residuals, _ = _pattern_coordinates(rotated)
    assert coords is not None and residuals.max() > 0.0
    assert states._unit_read(rotated, 0) is None and states._unit_read(d, 0) is not None
    corner = Corner(np.eye(n, dtype=complex)[:, [0, 1, 2]])
    assert _coordinate_corner(rotated, corner) is None and _coordinate_corner(d, corner) is not None
