"""A block character's build writes each unit row once.

algebras._mask_algebra is the one writer of declared unit rows: identity
rows in coordinates, and u[:, i] (x) conj(u[:, j]) from u's columns
(_rotated_units) for a rotation.  A rotated random_block_instance writes A's
and D's rows once each with it, writes no coordinate rows, makes M_n once
(for the instance) and takes J's rows from A's; a coordinate build writes J
with no product.  Every row is the same per-entry product as the route
left in place, unitary_conjugate_algebra of the coordinate build with
_rotated_units for J, so everything the build and the two pipelines give is
the same bit for bit: A's and D's rows and patterns, Phi's factors, J's rows
and tau, and Psi and rho from both pipelines.
"""

from unittest import mock

import numpy as np
import pytest

from ncrep import algebras, instances, representing
from ncrep.algebras import (
    _UNITARY_DEFECT,
    _rotated_units,
    _unitary_defect,
    block_diagonal_algebra,
    block_upper_triangular,
    full_matrix_algebra,
    unitary_conjugate_algebra,
)
from ncrep.errors import InvariantViolation
from ncrep.instances import haar_unitary, random_central_density, random_partition
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


@pytest.mark.parametrize("n", [6, 16])
@pytest.mark.parametrize("conjugate", [False, True])
def test_a_build_writes_each_unit_row_once(n, conjugate):
    with mock.patch.object(algebras, "full_matrix_algebra", wraps=algebras.full_matrix_algebra) as full, \
            mock.patch.object(instances, "full_matrix_algebra", new=algebras.full_matrix_algebra), \
            mock.patch.object(algebras, "_rotated_units", wraps=algebras._rotated_units) as written, \
            mock.patch.object(representing, "_rotated_units", wraps=algebras._rotated_units) as written_j, \
            mock.patch.object(algebras, "_mask_algebra", wraps=algebras._mask_algebra) as writer:
        inst = instances.random_block_instance(n, np.random.default_rng(n), conjugate=conjugate)
    assert full.call_count == 1 and inst.m.dim == n**2
    # A, then D, each written once, rotated when the instance is: no coordinate rows on a rotated build
    assert [call.args[1] for call in writer.call_args_list] == [algebras.Subalgebra, algebras.StarAlgebra]
    assert all((call.args[2] is None) != conjugate for call in writer.call_args_list)
    assert written.call_count == (2 if conjugate else 0) and written_j.call_count == 0
    # J's rows are A's, at the units off D's mask
    a, d = inst.a, inst.d
    rows = a.space.flat[~d.pattern[1][a.pattern[1]]]
    assert inst.phi.kernel.flat.tobytes() == rows.tobytes()


def _same(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _pipelines(n, a, d, phi):
    """(Psi's left factors and rho's density) from the tracial pipeline and from the state pipeline."""
    m = full_matrix_algebra(n)
    omega = random_central_density(n, d, np.random.default_rng(n))
    out = []
    for psi, rho in (representing_expectation_tracial(m, PositiveFunctional.tracial(n), d, a, phi),
                     representing_expectation_state(m, omega, d, a, phi)):
        out += [psi.factors.left if psi.factors is not None else psi.map_matrix, rho.density]
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
    assert _same(phi.factors.left, factors.left) and _same(phi.factors.right, factors.right)
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
