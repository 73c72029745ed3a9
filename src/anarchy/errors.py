"""Exception types shared across the package."""


class AnarchyError(Exception):
    """Base class for all domain errors raised by this package."""


class SchemaError(AnarchyError):
    """Malformed network or mechanism data."""


class EmptyNetwork(AnarchyError):
    """A network needs at least one link."""


class NegativeCoefficient(AnarchyError):
    """Latency coefficients must be finite and non-negative."""


class ZeroSlopeNotLast(AnarchyError):
    """Only the largest-intercept link may have zero slope."""


class NegativeRate(AnarchyError):
    """Demand rates must be non-negative."""


class SegmentMismatch(AnarchyError):
    """Rates straddle a usage breakpoint, or the segment index is wrong."""


class InfeasibleRate(AnarchyError):
    """Total link capacity cannot absorb the requested rate."""


class NotTwoLinks(AnarchyError):
    """Operation or mechanism is defined for exactly two links."""


class BadParamCount(AnarchyError):
    """Wrong number of mechanism parameters."""


class ParamTooSmall(AnarchyError):
    """Mechanism parameters must be at least 2."""


class ParamOutOfRange(AnarchyError):
    """Mechanism parameter outside its feasible range."""


class RatioOutOfRange(AnarchyError):
    """Slope ratio outside the supported range, e.g. too small for a plateau."""


class CostUnderflow(AnarchyError):
    """The optimal cost rounds to zero at a positive demand, so no ratio exists."""


class CostOverflow(AnarchyError):
    """A cost overflows the float range at a finite demand, so no ratio exists."""


class InvalidModelValue(AnarchyError, ValueError):
    """A piecewise latency or flow profile built from inconsistent values."""


class CertificateFailed(AnarchyError):
    """A solved flow failed the solver's own equilibrium certificate."""


class NotContinuousAtEquilibrium(AnarchyError):
    """Modified latency is discontinuous at the equilibrium point."""

