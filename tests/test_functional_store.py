"""What a functional keeps: its store (PositiveFunctional.derived) and its read-only density.

A functional keeps, per algebra object, its restricted density,
is_D_central's (verdict, violation) per (D, M) and the validated expectation
_preserving_expectation builds per (target, M), under weak references to the
algebras, so an entry goes once an algebra in its key is collected.  A gate
on a kept verdict raises its own class and message every time; a build or a
probe that raised keeps nothing and raises again; a check=False build is not
kept; the kept map is the object preserving_expectation and
existence_diagnosis return, its arrays are read-only, and it equals bit for
bit the map a fresh functional with the same density builds.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrep import expectations, linalg, states
from ncrep.algebras import block_diagonal_algebra, commutant, full_matrix_algebra, unitary_conjugate_algebra
from ncrep.errors import GramSingular, NotCentral, NotDCentral
from ncrep.expectations import (
    ConditionalExpectation,
    _preserving_expectation,
    existence_diagnosis,
    preserving_expectation,
    support_ideal_expectation,
)
from ncrep.instances import haar_unitary, random_block_instance, random_central_density, random_density
from ncrep.states import PositiveFunctional, is_D_central
from test_existence_once import _count_calls


def _count_builds(monkeypatch):
    """The ConditionalExpectation objects constructed from here on."""
    built = []
    init = ConditionalExpectation.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConditionalExpectation, "__init__", counting)
    return built


def _kept_arrays(e):
    """The kept map's arrays: its factors', then map_matrix and images."""
    factors = e.factors
    sides = () if factors is None else (
        (factors.left, factors.right) if isinstance(factors, linalg.SandwichSum) else (factors.rows, factors.coef))
    return (*sides, e.map_matrix, e.images)


def test_the_density_is_read_only_and_not_the_callers():
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    omega = PositiveFunctional(rho)
    d, m = block_diagonal_algebra(3, [[0], [1], [2]]), full_matrix_algebra(3)
    kept = omega.restricted_density(m).copy()
    eigenvalues = omega.spectrum.eigenvalues.copy()
    rho[0, 0] = 7.0
    rho[1, 2] = 1.0
    assert not omega.density.flags.writeable
    assert omega.density[0, 0] == 0.5 and omega.density[1, 2] == 0.0
    assert omega.restricted_density(m).tobytes() == kept.tobytes()
    assert omega.spectrum.eigenvalues.tobytes() == eigenvalues.tobytes()
    assert is_D_central(omega, d, m)[0]
    with pytest.raises(ValueError):
        omega.density[0, 0] = 1.0
    # a read-only view of a writeable array is copied too; a read-only array is kept as it is
    view = rho[:, :]
    view.flags.writeable = False
    assert not np.shares_memory(PositiveFunctional(view, check=False).density, rho)
    frozen = omega.density
    assert PositiveFunctional(frozen).density is frozen


def test_a_non_central_gate_raises_the_same_error_twice_from_one_probe(monkeypatch):
    n = 5
    d, m = block_diagonal_algebra(n, [[0, 1, 2], [3, 4]]), full_matrix_algebra(n)
    omega = random_density(n, np.random.default_rng(5))
    probes = _count_calls(monkeypatch, states, "_central_violation")
    raised = []
    for _ in range(2):
        with pytest.raises(NotDCentral) as err:
            preserving_expectation(omega, d, m)
        raised.append(str(err.value))
    assert raised[0] == raised[1] and raised[0].startswith("omega is not D-central (violation ")
    # another gate reads the same verdict with its own class and message
    with pytest.raises(NotCentral, match="D is not inside the centralizer of omega"):
        expectations.average_to_central(omega, omega, d, m)
    assert len(probes) == 1


def test_a_singular_build_raises_again_and_is_not_kept(monkeypatch):
    n = 5
    d, m = block_diagonal_algebra(n, [[0, 1, 2], [3, 4]]), full_matrix_algebra(n)
    rho = random_central_density(n, d, np.random.default_rng(6)).density.copy()
    rho[3:, :] = rho[:, 3:] = 0.0  # vanishes on D's second block
    omega = PositiveFunctional(rho / np.trace(rho).real)
    solves = _count_calls(monkeypatch, expectations, "_block_factors")
    raised = []
    for _ in range(2):
        with pytest.raises(GramSingular) as err:
            _preserving_expectation(omega, d, m)
        raised.append(str(err.value))
    assert raised[0] == raised[1]
    assert len(solves) == 2
    assert not existence_diagnosis(omega, d, m).constructed


def test_an_unchecked_build_is_neither_kept_nor_read(monkeypatch):
    n = 5
    d, m = block_diagonal_algebra(n, [[0, 1, 2], [3, 4]]), full_matrix_algebra(n)
    omega = random_central_density(n, d, np.random.default_rng(7))
    built = _count_builds(monkeypatch)
    unchecked = [_preserving_expectation(omega, d, m, check=False) for _ in range(2)]
    kept = _preserving_expectation(omega, d, m)
    assert len(built) == 3 and len({id(e) for e in (*unchecked, kept)}) == 3
    assert [e.validated for e in (*unchecked, kept)] == [False, False, True]
    assert _preserving_expectation(omega, d, m, check=False) is not kept


def test_the_kept_expectation_is_the_diagnosis_expectation(monkeypatch):
    n = 6
    d = unitary_conjugate_algebra(block_diagonal_algebra(n, [[0, 1, 2], [3, 4], [5]]),
                                  haar_unitary(n, np.random.default_rng(8)))
    m = full_matrix_algebra(n)
    omega = random_central_density(n, d, np.random.default_rng(9))
    probes = _count_calls(monkeypatch, states, "_central_violation")
    built = _count_builds(monkeypatch)
    report = existence_diagnosis(omega, d, m)
    first, second = preserving_expectation(omega, d, m), preserving_expectation(omega, d, m)
    assert report.constructed and first is second is report.expectation
    assert len(built) == 1 and len(probes) == 1
    # support_ideal_expectation's gate reads the kept verdict; its own map is built afresh
    ideal = [support_ideal_expectation(omega, d, m) for _ in range(2)]
    assert ideal[0] is not ideal[1] and len(probes) == 1


@pytest.mark.parametrize("n, target", [(3, "D"), (6, "D"), (8, "D'"), (4, "D'")])
def test_the_kept_arrays_are_read_only(n, target):
    # the matrix route below the crossovers, the block route onto D and the pair route onto D'
    inst = random_block_instance(n, np.random.default_rng(n), conjugate=True)
    onto = inst.d if target == "D" else commutant(inst.d, inst.m)
    e = _preserving_expectation(inst.state, onto, inst.m)
    assert e is _preserving_expectation(inst.state, onto, inst.m)
    assert (e.factors is None) == (n <= 4)
    arrays = _kept_arrays(e) + (inst.state.restricted_density(inst.m), inst.state.density)
    assert not any(a.flags.writeable for a in arrays)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.booleans(), st.integers(0, 2**32 - 1))
def test_the_kept_map_is_the_map_a_fresh_functional_builds(n, rotated, seed):
    inst = random_block_instance(n, np.random.default_rng(seed), conjugate=rotated)
    omega, d, m = inst.state, inst.d, inst.m
    existence_diagnosis(omega, d, m)  # keeps the verdict and E_D
    for target in (d, commutant(d, m)):
        kept = _preserving_expectation(omega, target, m)
        assert kept is _preserving_expectation(omega, target, m)
        fresh = _preserving_expectation(PositiveFunctional(omega.density), target, m)
        assert [a.tobytes() for a in _kept_arrays(kept)] == [a.tobytes() for a in _kept_arrays(fresh)]


def test_one_functional_probed_against_many_algebras_keeps_a_flat_live_size():
    # a non-central state keeps a verdict per D; with D held only by the store's weak references, each
    # D the loop lets go takes its entry with it (held strongly, about 48 KB stayed live per D)
    n = 8
    omega = random_density(n, np.random.default_rng(8))
    m = full_matrix_algebra(n)
    sizes = []
    tracemalloc.start()
    try:
        for k in range(100):
            existence_diagnosis(omega, block_diagonal_algebra(n, [[0, 1, 2, 3], [4, 5, 6], [7]]), m)
            if k in (9, 99):
                gc.collect()
                sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[1] - sizes[0] < 2**18
    # a D still held keeps its verdict, read back without a second probe
    d = block_diagonal_algebra(n, [[0, 1, 2, 3], [4, 5, 6], [7]])
    assert is_D_central(omega, d, m) is is_D_central(omega, d, m)
