"""Exception types.

Every failure mode has its own class so callers can react to the exact
condition.  All inherit from NcrepError.  InconsistencyDetected is special:
it signals that two independent computations of the same fact disagreed,
which is a numerical or logic fault of the artifact, never a property of
the input; cross_check is the one place that decides when to raise it.
"""


class NcrepError(Exception):
    pass


# matrix substrate
class NotHermitian(NcrepError):
    pass


class NotPositiveDefinite(NcrepError):
    pass


class DimensionMismatch(NcrepError):
    pass


class EmptyInput(NcrepError):
    pass


# states and centralizers
class NotFaithful(NcrepError):
    pass


class InconsistencyDetected(NcrepError):
    pass


class DoesNotCommute(NcrepError):
    pass


# conditional expectations
class NotDCentral(NcrepError):
    pass


class GramSingular(NcrepError):
    pass


class DensityDoesNotCommute(NcrepError):
    pass


class NotNormalized(NcrepError):
    pass


class NotCentral(NcrepError):
    pass


class NotAnExtension(NcrepError):
    pass


class SupportNotCentral(NcrepError):
    pass


# representing-measure pipelines
class GSingular(NcrepError):
    pass


class NotAbelian(NcrepError):
    pass


class NotDense(NcrepError):
    pass


# geometric means and logmodularity
class NotTracial(NcrepError):
    pass


class NotInvertible(NcrepError):
    pass


class NotTriangularType(NcrepError):
    pass


class NotBoundedBelow(NcrepError):
    pass


# instance I/O
class ParseError(NcrepError):
    pass


class InvariantViolation(NcrepError):
    pass


class BadPartition(InvariantViolation):
    pass


def cross_check(what, verdict, confirmation, *margins):
    """Return verdict after comparing it with a second route's confirmation.

    Each margin is a (statistic, threshold) pair behind one of the verdicts.
    Rounding can flip a verdict whose statistic sits near its threshold, so
    disagreement is an InconsistencyDetected only when every statistic lies
    more than a factor 30 from its threshold, on either side.
    """
    if verdict != confirmation and all(max(s, t) > 30 * min(s, t) for s, t in margins):
        detail = ", ".join(f"{s:.3e} against threshold {t:.3e}" for s, t in margins)
        raise InconsistencyDetected(f"{what}: {detail}")
    return verdict
