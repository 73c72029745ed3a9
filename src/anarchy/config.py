"""Shared numeric tolerances."""
from __future__ import annotations

# Relative slack of comparisons between independently computed values and of
# user-given marks: the continuity, usage-order, plateau-mark and slope-ratio
# checks, and verify's own comparisons.  A flow profile's sum reads the
# rounding allowance in model.py instead.
DEFAULT_TOLERANCE = 1e-9
# Construction-time aggregate identities are checked much tighter.
IDENTITY_RTOL = 1e-12
