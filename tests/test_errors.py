"""errors.check, the one rule for threshold tests."""

import numpy as np
import pytest

from ncrep.errors import InvariantViolation, NotHermitian, check


def test_check_passes_at_and_below_the_threshold():
    check(InvariantViolation, "{:.3e}", 1.0, 1.0)
    check(InvariantViolation, "{:.3e}", np.array([0.5, 1.0]), 1.0)
    check(InvariantViolation, "{:.3e}", np.empty(0), 1.0)


@pytest.mark.parametrize("deviation", [float("nan"), np.nan, np.array([0.0, np.nan, 0.0])])
def test_check_fails_on_nan(deviation):
    with pytest.raises(InvariantViolation, match="^defect nan$"):
        check(InvariantViolation, "defect {:.3e}", deviation, 1.0)


def test_check_reports_the_first_failing_entry_with_the_given_class():
    with pytest.raises(NotHermitian, match=r"^defect 3\.000e\+00$"):
        check(NotHermitian, "defect {:.3e}", np.array([0.1, 3.0, 9.0, 5.0]), 1.0)
    # C order over a 2-d stack: row 0 before row 1
    with pytest.raises(InvariantViolation, match=r"^defect 7\.000e\+00$"):
        check(InvariantViolation, "defect {:.3e}", np.array([[0.0, 7.0], [9.0, 0.0]]), 1.0)
    # a transposed view is read in its own C order, not its memory order
    with pytest.raises(InvariantViolation, match=r"^defect 9\.000e\+00$"):
        check(InvariantViolation, "defect {:.3e}", np.array([[0.0, 7.0], [9.0, 0.0]]).T, 1.0)


def test_check_broadcasts_thresholds():
    deviation = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    check(InvariantViolation, "{}", deviation, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InvariantViolation, match=r"^defect 2\.000e\+00$"):
        check(InvariantViolation, "defect {:.3e}", deviation, np.array([1.0, 1.5, 3.0]))
    # a scalar deviation against an array of thresholds reports the deviation itself
    with pytest.raises(InvariantViolation, match=r"^defect 2\.000e\+00$"):
        check(InvariantViolation, "defect {:.3e}", 2.0, np.array([3.0, 1.0]))


def test_check_message_without_a_field_is_raised_as_is():
    with pytest.raises(InvariantViolation, match="^psi does not restrict to omega on D$"):
        check(InvariantViolation, "psi does not restrict to omega on D", np.array([2.0]), 1.0)
