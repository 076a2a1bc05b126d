"""Global tolerance scale.

Every tolerance in the package is a base value times one global scale
factor, so the whole artifact can be loosened or tightened at once.  The
scale defaults to 1.0 and can be overridden by the NCREP_TOL environment
variable (read once at import) or at run time via set_tol_scale().
"""

import os

_scale = float(os.environ.get("NCREP_TOL", "1.0"))
if _scale <= 0:
    raise ValueError("NCREP_TOL must be positive")


def set_tol_scale(value):
    global _scale
    value = float(value)
    if value <= 0:
        raise ValueError("tolerance scale must be positive")
    _scale = value


def tol(base):
    """Scaled tolerance: base value times the global scale."""
    return base * _scale
