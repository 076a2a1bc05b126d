"""Inputs of the wrong size or with non-finite entries raise typed errors at the public boundary.

A matrix, functional or algebra of another size than the objects it is
used with raises DimensionMismatch before any array operation can fail on
the shapes; a functional's argument goes through as_matrix, so NaN and inf
entries raise InvariantViolation instead of giving a nan value.  mth_check
takes the same InvariantViolation for a weight or density that is not
finite as for a negative weight, before any probe runs.
"""

import numpy as np
import pytest

from ncrep.algebras import diagonal_algebra, full_matrix_algebra
from ncrep.errors import DimensionMismatch, InvariantViolation
from ncrep.expectations import average_to_central, preserving_expectation
from ncrep.jensen import geometric_mean
from ncrep.representing import (
    make_block_character,
    mth_check,
    representing_expectation_state,
    representing_expectation_tracial,
)
from ncrep.states import PositiveFunctional, tracial_certificate


def _instance():
    """(M_3, D, A, Phi, the tracial expectation onto D) for the block character of the partition {0}, {1, 2}."""
    a, d, phi = make_block_character(3, [[0], [1, 2]])
    m = full_matrix_algebra(3)
    return m, d, a, phi, preserving_expectation(PositiveFunctional.tracial(3), d, m)


def _t(n):
    return PositiveFunctional.tracial(n)


MISMATCHES = {
    "functional at a smaller matrix": lambda m, d, a, phi, e: _t(3)(np.eye(2)),
    "functional at a larger matrix": lambda m, d, a, phi, e: _t(2)(np.eye(3)),
    "character at a smaller matrix": lambda m, d, a, phi, e: phi(np.eye(2)),
    "expectation at a larger matrix": lambda m, d, a, phi, e: e(np.eye(4)),
    "tracial certificate, smaller functional": lambda m, d, a, phi, e: tracial_certificate(_t(2), m),
    "tracial certificate, smaller algebra": lambda m, d, a, phi, e: tracial_certificate(_t(3), diagonal_algebra(2)),
    "geometric mean of a smaller matrix": lambda m, d, a, phi, e: geometric_mean(_t(3), np.eye(2)),
    "averaging a smaller psi": lambda m, d, a, phi, e: average_to_central(_t(2), _t(3), d, m),
    "averaging against a smaller omega": lambda m, d, a, phi, e: average_to_central(_t(3), _t(2), d, m),
    "tracial pipeline, smaller tau": lambda m, d, a, phi, e: representing_expectation_tracial(m, _t(2), d, a, phi),
    "state pipeline, smaller omega": lambda m, d, a, phi, e: representing_expectation_state(m, _t(2), d, a, phi),
    "state pipeline, larger omega": lambda m, d, a, phi, e: representing_expectation_state(m, _t(4), d, a, phi),
}


@pytest.mark.parametrize("case", MISMATCHES)
def test_a_size_mismatch_raises_dimension_mismatch(case):
    with pytest.raises(DimensionMismatch):
        MISMATCHES[case](*_instance())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_functional_at_a_non_finite_matrix_raises(bad):
    x = np.eye(3, dtype=complex)
    x[0, 1] = bad
    with pytest.raises(InvariantViolation, match="^matrix entries must be finite$"):
        _t(3)(x)


@pytest.mark.parametrize("mu, g", [
    ([1.0, 1.0], [np.inf, 1.0]),
    ([1.0, 1.0], [np.nan, 1.0]),
    ([np.inf, 1.0], [1.0, 1.0]),
    ([0.5, 0.5], [1.0, -np.inf]),
    ([0.0, 1.0], [np.nan, 1.0]),  # off the support too
])
def test_mth_check_rejects_weights_that_are_not_finite(mu, g):
    with pytest.raises(InvariantViolation, match="^mu and g must be finite$"):
        mth_check(np.array(mu), np.array(g))
    # a NaN weight is caught first by the nonnegativity check, as before
    with pytest.raises(InvariantViolation, match="^mu must be nonnegative$"):
        mth_check(np.array([np.nan, 1.0]), np.array(g))
