"""Shared numeric tolerances."""
from __future__ import annotations

import math
import os

from .errors import SchemaError

DEFAULT_TOLERANCE = 1e-9
# Construction-time aggregate identities are checked much tighter.
IDENTITY_RTOL = 1e-12


def comparison_tolerance() -> float:
    """Default relative tolerance for equilibrium and bound comparisons.

    Override with the ANARCHY_TOL environment variable, a finite positive
    float literal; anything else raises SchemaError.
    """
    raw = os.environ.get("ANARCHY_TOL")
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise SchemaError(f"ANARCHY_TOL must be a finite positive number, got {raw!r}")
    return tol
