"""Tolerances.

Every tolerance in the package is written tol(base) for a fixed base value;
there is no global scale.  Code outside the package that re-checks results,
such as the benchmark, reads its tolerances through the same function.
"""


def tol(base):
    """The tolerance for a base value: the base value itself."""
    return base
