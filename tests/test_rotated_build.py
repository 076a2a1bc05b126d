"""A block character's build writes each unit row once, and M_n's never.

A declared space (algebras._unit_space) holds its pattern (u, mask) and
no rows; linalg._unit_rows writes them on first read: identity rows in
coordinates, and u[:, i] (x) conj(u[:, j]) from u's columns
(_rotated_units) for a rotation, the same bits the eager writer gave.  A
random_block_instance writes A's and D's rows once each, makes M_n once
(for the instance) and never writes its rows, and declares J on the units
off D's mask, written on the pipelines' first read.  With two or more
blocks the build, both pipelines and the existence diagnosis with its
support-ideal map read M_n by index alone.  Every row is the same
per-entry product as the route left in place, unitary_conjugate_algebra
of the coordinate build with _rotated_units for J, so everything the build
and the two pipelines give is the same bit for bit: A's and D's rows and
patterns, Phi's factors, J's rows and tau, and Psi and rho from both
pipelines.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ncrep import algebras, expectations, instances, linalg, representing
from ncrep.algebras import (
    _UNITARY_DEFECT,
    _unitary_defect,
    block_diagonal_algebra,
    block_upper_triangular,
    full_matrix_algebra,
    unitary_conjugate_algebra,
)
from ncrep.errors import InvariantViolation
from ncrep.instances import haar_unitary, random_central_density, random_density, random_partition
from ncrep.linalg import OperatorSubspace, SandwichSum, _rotated_units
from ncrep.representing import (
    DCharacter,
    _block_character,
    _pinching,
    representing_expectation_state,
    representing_expectation_tracial,
)
from ncrep.states import PositiveFunctional

ROTATIONS = ("coordinate", "haar", "near defect")


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


def _writes():
    """A spy on the one writer of declared rows; its call_args_list holds each (u, mask) written."""
    return mock.patch.object(linalg, "_unit_rows", wraps=linalg._unit_rows)


def _m_rows(writer, n):
    """The writes of M_n's identity rows among the spy's calls: coordinates on the all-true n x n mask."""
    return [call for call in writer.call_args_list
            if call.args[0] is None and call.args[1].shape == (n, n) and call.args[1].all()]


@pytest.mark.parametrize("n", [6, 16])
@pytest.mark.parametrize("conjugate", [False, True])
def test_a_build_writes_each_unit_row_once(n, conjugate):
    with mock.patch.object(algebras, "full_matrix_algebra", wraps=algebras.full_matrix_algebra) as full, \
            mock.patch.object(instances, "full_matrix_algebra", new=algebras.full_matrix_algebra), \
            _writes() as writer:
        inst = instances.random_block_instance(n, np.random.default_rng(n), conjugate=conjugate)
    assert full.call_count == 1 and inst.m.dim == n**2
    a, d = inst.a, inst.d
    assert d.dim < n**2  # two or more blocks, so no all-true mask but M's
    # A's rows once and D's once, each from its own declaration, rotated when the instance is; M's never
    written = {id(call.args[1]): call.args[0] for call in writer.call_args_list}
    assert writer.call_count == 2 and all(written[id(alg.pattern[1])] is alg.pattern[0] for alg in (a, d))
    assert (a.pattern[0] is None) != conjugate
    assert not _m_rows(writer, n) and "flat" not in vars(inst.m.space)
    # J is declared on the units off D's mask: its rows, first read here, are A's there
    assert inst.phi.kernel.declared[1].sum() == a.dim - d.dim
    rows = a.space.flat[~d.pattern[1][a.pattern[1]]]
    assert inst.phi.kernel.flat.tobytes() == rows.tobytes()


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("n", [5, 10, 16])
def test_the_pipelines_never_write_m_rows(n, conjugate):
    # on two or more blocks no declared all-true mask but M's is read; a one-block partition has
    # A = D = M_n, whose rows the pipelines do read
    seed = next(seed for seed in range(100) if len(random_partition(n, np.random.default_rng(seed))) > 1)
    with _writes() as writer:
        inst = instances.random_block_instance(n, np.random.default_rng(seed), conjugate=conjugate)
        args = (inst.m, inst.state, inst.d, inst.a, inst.phi)
        representing_expectation_tracial(*args)
        representing_expectation_state(*args)
    assert inst.d.dim < n**2
    assert not _m_rows(writer, n)
    # A, D and J, each once
    assert writer.call_count == 3


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_the_diagnosis_never_writes_m_rows(n):
    # a central faithful state, a non-central one and a central one cut to the first block, which
    # also gets its support-ideal map; M_r's rows on the support's corner are another algebra's
    rng = np.random.default_rng(n)
    blocks = [list(range(0, n - 3)), list(range(n - 3, n - 1)), [n - 1]]
    d, m = block_diagonal_algebra(n, blocks), full_matrix_algebra(n)
    central = random_central_density(n, d, rng).density
    keep = np.zeros((n, n))
    keep[blocks[0], blocks[0]] = 1.0
    cut = keep @ central @ keep
    states = (PositiveFunctional(central), random_density(n, rng), PositiveFunctional(cut / np.trace(cut).real))
    with _writes() as writer:
        for omega in states:
            assert expectations.existence_diagnosis(omega, d, m).equivalences_hold
        e = expectations.support_ideal_expectation(omega, d, m)
    assert not _m_rows(writer, n) and "flat" not in vars(m.space)
    assert np.abs(e.pullback_density(omega.density) - omega.density).max() < 1e-8


def test_m_n_allocates_no_rows():
    tracemalloc.start()
    try:
        m = full_matrix_algebra(64)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 1.0, peak
    assert m.dim == 64**2 and "flat" not in vars(m.space)


def _eager_rows(u, mask):
    """An eager writer of declared rows, the reference for the lazy one: identity rows the mask
    selects for u None, else one product per entry of u's columns, in the mask's row-major order."""
    n = len(mask)
    where = np.flatnonzero(mask)
    if u is None:
        rows = np.zeros((len(where), n * n), dtype=complex)
        rows[np.arange(len(where)), where] = 1.0
        return rows
    rows = np.empty((len(where), n * n), dtype=complex)
    i, j = np.divmod(where, n)
    np.multiply(u.T[i][:, :, None], u.T[j].conj()[:, None, :], out=rows.reshape(len(where), n, n))
    return rows


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_rows_written_on_first_read_are_the_eager_rows(n, rotation):
    rng = np.random.default_rng(2000 + n)
    blocks = random_partition(n, rng)
    u = _rotation(n, rotation, rng)
    with _writes() as writer:
        base = block_upper_triangular(n, blocks)
        alg = base if u is None else unitary_conjugate_algebra(base, u)
        # a coordinate algebra's validation reads its columns, a rotated one's its rows
        assert writer.call_count == (u is not None)
        space = OperatorSubspace(n, declared=alg.pattern)
        assert space.size == alg.dim and writer.call_count == (u is not None)
        rows = space.flat
        assert space.flat is rows and space.tensor.base is rows and not rows.flags.writeable
    assert writer.call_count == 1 + (u is not None)
    assert _same(rows, _eager_rows(*alg.pattern))
    assert _same(alg.space.flat, rows)


def _same(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _pipelines(n, a, d, phi):
    """(Psi's left factors and rho's density) from the tracial pipeline and from the state pipeline."""
    m = full_matrix_algebra(n)
    omega = random_central_density(n, d, np.random.default_rng(n))
    out = []
    for psi, rho in (representing_expectation_tracial(m, PositiveFunctional.tracial(n), d, a, phi),
                     representing_expectation_state(m, omega, d, a, phi)):
        out += [psi.storage.left if isinstance(psi.storage, SandwichSum) else psi.map_matrix, rho.density]
    return out


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("n", range(2, 17))
def test_the_build_is_bitwise_the_rotation_of_the_coordinate_build(n, rotation):
    rng = np.random.default_rng(1000 + n)
    blocks = random_partition(n, rng)
    u = _rotation(n, rotation, rng)
    a, d, phi = _block_character(n, blocks, u)
    want_a, want_d = block_upper_triangular(n, blocks), block_diagonal_algebra(n, blocks)
    factors = _pinching(want_d, u)
    if u is not None:
        want_a, want_d = unitary_conjugate_algebra(want_a, u), unitary_conjugate_algebra(want_d, u)
    want_phi = DCharacter(factors, want_a, want_d)
    for got, want in ((a, want_a), (d, want_d)):
        assert _same(got.space.flat, want.space.flat)
        assert got.pattern[0] is u and np.array_equal(got.pattern[1], want.pattern[1])
        assert got.blocks == want.blocks == (None if u is not None else [list(b) for b in blocks])
    assert _same(phi.storage.left, factors.left) and _same(phi.storage.right, factors.right)
    off = a.pattern[1] & ~d.pattern[1]
    assert _same(phi.kernel.flat, _rotated_units(np.eye(n) if u is None else u, *np.nonzero(off)))
    assert phi.kernel_tau is not None and phi.kernel_tau == want_phi.kernel_tau
    assert _same(np.asarray(phi.fix), np.asarray(want_phi.fix))
    for got, want in zip(_pipelines(n, a, d, phi), _pipelines(n, want_a, want_d, want_phi)):
        assert _same(got, want)


def test_a_rotation_beyond_the_pattern_defect_keeps_its_pattern_and_the_dense_routes_decide():
    # a u off unitary by about 1e-11, inside the 1e-9 a rotation may miss by but beyond the 1e-12 a
    # rotated pattern is kept with: the build keeps the pattern that wrote its rows, and every mask
    # certificate gated by _mask_gap gives no verdict, so J is the null space of Phi's images
    n = 6
    rng = np.random.default_rng(6)
    u = haar_unitary(n, rng) @ np.diag(1.0 + 1e-11 * np.linspace(1.0, 2.0, n))
    assert _UNITARY_DEFECT < _unitary_defect(u) <= 1e-9
    a, d, phi = _block_character(n, [[0, 1], [2, 3, 4], [5]], u)
    assert a.pattern[0] is u and d.pattern[0] is u
    assert algebras._mask_gap(a) == np.inf and phi.kernel_tau is None
    with pytest.raises(InvariantViolation, match="^rotation: u is not unitary"):
        _block_character(n, [[0, 1], [2, 3, 4], [5]], u @ np.diag(1.0 + 1e-6 * np.ones(n)))
