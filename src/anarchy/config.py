"""Shared numeric tolerances."""
from __future__ import annotations

# Relative slack of the flow-sum, continuity, usage-order and plateau checks.
DEFAULT_TOLERANCE = 1e-9
# Construction-time aggregate identities are checked much tighter.
IDENTITY_RTOL = 1e-12
