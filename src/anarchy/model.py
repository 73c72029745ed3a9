"""Parallel-link instances, latency families and flow profiles.

A network is a set of parallel links between one source and one sink, each
link carrying an affine latency slope*x + intercept.  Normalization sorts
links by intercept, merges equal-intercept links into one (their
efficiencies add) and precomputes the prefix aggregates that every solver
downstream relies on.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from .errors import (
    EmptyNetwork,
    InvalidModelValue,
    NegativeCoefficient,
    NegativeRate,
    SchemaError,
    ZeroSlopeNotLast,
)

INF = math.inf
# The least positive normal float: below it rounding is absolute.
_LEAST_NORMAL = sys.float_info.min


def _real(value: object) -> float:
    # float(value), with a number past the float range read as +-inf, as the
    # JSON reader reads it, so that the finite checks raise their own errors.
    try:
        return float(value)
    except OverflowError:
        return INF if value > 0 else -INF


def check_rate(rate: float) -> None:
    """Reject a demand rate that is negative, infinite or NaN."""
    rate = _real(rate)
    if not 0.0 <= rate < INF:
        raise NegativeRate(f"rate must be finite and >= 0, got {rate}")


class _Checked:
    """Base of a NamedTuple record whose ``__new__`` checks or derives fields.

    ``copy`` and ``pickle`` rebuild a record through ``__new__`` from
    :meth:`__getnewargs__`, the constructor's arguments; ``_replace`` does
    the same with the changes applied, where a bare NamedTuple's would skip
    the checks.
    """

    __slots__ = ()

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self.__getnewargs__()), **changes))


def real_number(value: object) -> float:
    """float(value) for a JSON number; a string, bytes or bool, which float()
    would also read, raises TypeError."""
    if isinstance(value, (str, bytes, bool)):
        raise TypeError(f"not a number: {value!r}")
    return _real(value)


def _coefficient(name: str, value: float) -> float:
    v = _real(value)
    if not math.isfinite(v) or v < 0.0:
        raise NegativeCoefficient(f"{name} must be finite and >= 0, got {v!r}")
    return v


class _AffineFields(NamedTuple):
    slope: float
    intercept: float


class AffineLatency(_Checked, _AffineFields):
    """Latency slope*x + intercept of one link."""

    __slots__ = ()

    def __new__(cls, slope: float, intercept: float) -> AffineLatency:
        return tuple.__new__(cls, (_coefficient("slope", slope), _coefficient("intercept", intercept)))

    @property
    def efficiency(self) -> float:
        """Flow absorbed per unit of latency increase (infinite when constant)."""
        return 1.0 / self.slope if self.slope > 0.0 else INF

    @property
    def flow_offset(self) -> float:
        """Intercept expressed in flow units, intercept / slope."""
        if self.slope > 0.0:
            return self.intercept / self.slope
        return INF if self.intercept > 0.0 else 0.0

    def value(self, x: float) -> float:
        return self.slope * x + self.intercept


class ParallelNetwork(NamedTuple):
    """Normalized instance: links sorted by intercept, prefix sums cached.

    Instances are produced by :func:`normalize_network`.  ``eff_prefix[j]``
    and ``off_prefix[j]`` accumulate ``efficiency`` and ``flow_offset`` over
    links ``0..j``; ``breakpoints[j]`` is the demand at which a selfish flow
    first touches link ``j``.  No solver reads ``off_prefix``: a flow offset
    b/a can overflow where the split it would give does not.
    """

    links: tuple[AffineLatency, ...]
    efficiency: tuple[float, ...]
    eff_prefix: tuple[float, ...]
    off_prefix: tuple[float, ...]
    breakpoints: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.links)

    @property
    def intercepts(self) -> tuple[float, ...]:
        return tuple(l.intercept for l in self.links)

    @property
    def slopes(self) -> tuple[float, ...]:
        return tuple(l.slope for l in self.links)

    @property
    def has_flat_tail(self) -> bool:
        """True when the last link has zero slope (unbounded capacity at fixed cost)."""
        return self.links[-1].slope == 0.0

    def segment(self, start: int, end: int) -> "ParallelNetwork":
        """Sub-instance on links start..end-1 (already sorted and merged)."""
        return normalize_network(self.links[start:end])

    def to_json_dict(self) -> dict:
        return {"links": [{"a": l.slope, "b": l.intercept} for l in self.links]}


def normalize_network(raw_links: Iterable[AffineLatency | Mapping[str, float]]) -> ParallelNetwork:
    """Sort by intercept, merge equal-intercept links, cache aggregates.

    Merging adds efficiencies: two links with intercepts tied at b behave
    like one link with slope 1 / (1/a1 + 1/a2).  After merging, a zero-slope
    link is only allowed in the last position; earlier ones could never be
    cheapest and are rejected rather than silently dropped.  An entry that
    is neither an AffineLatency nor a mapping with numeric "a" and "b"
    raises SchemaError naming its index.
    """
    links: list[AffineLatency] = []
    for i, item in enumerate(raw_links):
        if isinstance(item, AffineLatency):
            links.append(item)
        elif isinstance(item, Mapping):
            try:
                a, b = real_number(item["a"]), real_number(item["b"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f'link {i} needs numeric "a" and "b"') from exc
            links.append(AffineLatency(a, b))
        else:
            raise SchemaError(f"link {i} is not an object")
    if not links:
        raise EmptyNetwork("network needs at least one link")

    links.sort(key=lambda l: l.intercept)

    merged: list[AffineLatency] = []
    for link in links:
        if merged and merged[-1].intercept == link.intercept:
            prev = merged[-1]
            if prev.slope == 0.0 or link.slope == 0.0:
                slope = 0.0
            else:
                slope = 1.0 / (1.0 / prev.slope + 1.0 / link.slope)
                if slope == 0.0:
                    # The summed efficiency overflowed; a / (1 + a/b) with
                    # a <= b is the same slope, and no term of it overflows.
                    a, b = sorted((prev.slope, link.slope))
                    slope = a / (1.0 + a / b)
            merged[-1] = AffineLatency(slope, link.intercept)
        else:
            merged.append(link)

    for i, link in enumerate(merged[:-1]):
        if link.slope == 0.0:
            raise ZeroSlopeNotLast(
                f"link {i} has zero slope but a larger-intercept link follows"
            )

    k = len(merged)
    eff = tuple(l.efficiency for l in merged)
    off = tuple(l.flow_offset for l in merged)
    eff_prefix = []
    off_prefix = []
    se = so = 0.0
    for e, o in zip(eff, off):
        se += e
        so += o
        eff_prefix.append(se)
        off_prefix.append(so)

    # breakpoints[j] = sum_{i<j} (b_j - b_i) * efficiency_i, built by the
    # recurrence bp[j] = bp[j-1] + (b_j - b_{j-1}) * eff_prefix[j-1], which
    # adds only non-negative terms.  Finite even for a zero-slope final link
    # because only earlier efficiencies enter.
    breakpoints = [0.0]
    for j in range(1, k):
        gap = merged[j].intercept - merged[j - 1].intercept
        breakpoints.append(breakpoints[-1] + gap * eff_prefix[j - 1])

    return ParallelNetwork(
        links=tuple(merged),
        efficiency=eff,
        eff_prefix=tuple(eff_prefix),
        off_prefix=tuple(off_prefix),
        breakpoints=tuple(breakpoints),
    )


def network_from_dict(obj: object) -> ParallelNetwork:
    """Build a network from the JSON shape {"links": [{"a": .., "b": ..}, ..]}."""
    if not isinstance(obj, Mapping) or "links" not in obj:
        raise SchemaError('network object must be {"links": [...]}')
    entries = obj["links"]
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise SchemaError('"links" must be a list of {"a": .., "b": ..} entries')
    return normalize_network(entries)


class _PiecewiseFields(NamedTuple):
    starts: tuple[float, ...]
    slopes: tuple[float, ...]
    offsets: tuple[float, ...]
    cap: float
    segments: tuple[tuple[float, float, float, float, float], ...]
    supply_events: tuple[tuple[float, float, float, float, float], ...]


class PiecewiseLatency(_Checked, _PiecewiseFields):
    """Non-decreasing piecewise-affine latency with optional hard cap.

    Segment i applies on the interval (starts[i], starts[i+1]]; the first
    segment also covers 0.  At a boundary the stored value is therefore the
    left limit, which keeps the function lower semicontinuous when it jumps.
    Flows strictly above ``cap`` cost +inf; flow exactly at the cap keeps its
    finite value, so a capped link can be loaded to the cap but never past it.

    Construction validates the latency and lists, clipped to the cap:

    ``segments``: the non-empty segments as (lo, hi, slope, v_lo, v_hi).
    The latency runs linearly from its right limit ``v_lo`` at flow ``lo``
    to its left limit ``v_hi`` at flow ``hi``; ``v_hi`` is infinite for an
    unbounded rising segment.  These corner levels are the only places
    where the flow a link absorbs at a given latency changes its form.
    Corner levels never decrease: construction lets the value just after a
    boundary sit below the highest value before it by up to the rounding
    allowance of its own two terms, the slack the equilibrium certificate
    gives that right limit, and such a dip is lifted to that level, so that
    a level equal to one segment's end never counts as above the next
    segment's start.

    ``supply_events``: the corner levels as (level, jump, rate change, held
    flow, held cost).  The supply, the most flow taken at latency <= L,
    rises at 1/slope on a rising segment and jumps by a flat segment's
    width.  Past a segment's end the link holds that flow at that end's
    latency until its next segment starts, if that start lies higher or
    there is none.
    """

    __slots__ = ()

    def __new__(cls, starts: Sequence[float], slopes: Sequence[float],
                offsets: Sequence[float], cap: float = INF) -> PiecewiseLatency:
        if not starts or len(starts) != len(slopes) or len(starts) != len(offsets):
            raise InvalidModelValue("segments need matching starts/slopes/offsets")
        starts = tuple(map(_real, starts))
        slopes = tuple(map(_real, slopes))
        offsets = tuple(map(_real, offsets))
        cap = _real(cap)
        if starts[0] != 0.0:
            raise InvalidModelValue("first segment must start at 0")
        for a, b in zip(starts, starts[1:]):
            if not b > a:
                raise InvalidModelValue("segment starts must be strictly increasing")
        for m in slopes:
            if not math.isfinite(m) or m < 0.0:
                raise InvalidModelValue("segment slopes must be finite and >= 0")
        for c in offsets:
            if not math.isfinite(c):
                raise InvalidModelValue("segment offsets must be finite")
        if math.isnan(cap) or cap < 0.0:
            raise InvalidModelValue("cap must be >= 0")
        # Non-decreasing across boundaries: the value just after a boundary
        # may sit below the highest value before it, the level the corner
        # table lifts it to, by the allowance of its own two terms.
        top = -INF
        for i in range(1, len(starts)):
            s, m1, c1 = starts[i], slopes[i], offsets[i]
            top = max(top, slopes[i - 1] * s + offsets[i - 1])
            if not _at_least(m1 * s + c1, top, m1 * s + abs(c1)):
                raise InvalidModelValue(f"value drops at boundary {s}: {top} -> {m1 * s + c1}")

        segments = []
        top = -INF
        for lo, end, m, c in zip(starts, starts[1:] + (INF,), slopes, offsets):
            hi = min(end, cap)
            if not hi > lo:
                break
            v_lo = max(top, m * lo + c)
            top = max(v_lo, m * hi + c if math.isfinite(hi) else (INF if m > 0.0 else c))
            segments.append((lo, hi, m, v_lo, top))
        events, release = [], (0.0, 0.0)
        for (lo, hi, m, v_lo, v_hi), nxt in zip(segments, segments[1:] + [None]):
            rate = 1.0 / m if m > 0.0 else 0.0
            events.append((v_lo, 0.0 if rate else hi - lo, rate, *release))
            if hi < INF:
                held = (hi, hi * v_hi) if nxt is None or nxt[3] > v_hi else (0.0, 0.0)
                events.append((v_hi, 0.0, -rate, *held))
                release = (-held[0], -held[1])
        return tuple.__new__(cls, (starts, slopes, offsets, cap, tuple(segments), tuple(events)))

    # The derived segments and supply events are neither constructor
    # arguments nor shown.
    def __getnewargs__(self) -> tuple:
        return self[:4]

    def __repr__(self) -> str:
        return (f"PiecewiseLatency(starts={self.starts!r}, slopes={self.slopes!r}, "
                f"offsets={self.offsets!r}, cap={self.cap!r})")

    @classmethod
    def from_affine(cls, lat: AffineLatency, cap: float = INF) -> "PiecewiseLatency":
        return cls(starts=(0.0,), slopes=(lat.slope,), offsets=(lat.intercept,), cap=cap)

    def value(self, x: float) -> float:
        """Latency at flow x (the left limit at segment boundaries)."""
        if x > self.cap:
            return INF
        idx = max(0, bisect_left(self.starts, x) - 1)
        return self.slopes[idx] * x + self.offsets[idx]

    def right_liminf(self, x: float) -> float:
        """Limit of the latency from the right of x."""
        if x >= self.cap:
            return INF
        idx = max(0, bisect_right(self.starts, x) - 1)
        return self.slopes[idx] * x + self.offsets[idx]

    def limits(self, x: float) -> tuple[float, float, float, float]:
        """:meth:`value` and :meth:`right_liminf` at x, each followed by
        slope*x + |offset| of the segment it reads.

        Each latency is the sum of those two terms, so where they cancel it
        is known only to a few ulps of that size, not of its own.  Below the
        normal range a flow is known only to one subnormal, not relative to
        itself, so x counts there as the least normal double.
        """
        starts, slopes, offsets, cap = self[:4]
        # starts[0] is 0, so searching from index 1 finds segment 0 at x = 0.
        i = bisect_left(starts, x, 1) - 1
        j = bisect_right(starts, x, 1) - 1
        m, c, mr, cr = slopes[i], offsets[i], slopes[j], offsets[j]
        n = x if x > _LEAST_NORMAL else _LEAST_NORMAL
        return (m * x + c if x <= cap else INF, m * n + abs(c),
                mr * x + cr if x < cap else INF, mr * n + abs(cr))

    def dominates(self, base: AffineLatency) -> bool:
        """True when this latency never undercuts the base affine latency.

        Both are affine on each segment, so comparing them at the segment ends
        decides it, up to the rounding of the terms both values sum; an
        unbounded last segment must also rise at least as fast.  Flow past a
        finite cap costs inf and needs no check.
        """
        for (lo, hi, m, v_lo, v_hi), c in zip(self.segments, self.offsets):
            if not _at_least(v_lo, base.value(lo), m * lo + abs(c) + base.value(lo)):
                return False
            if math.isfinite(hi):
                if not _at_least(v_hi, base.value(hi), m * hi + abs(c) + base.value(hi)):
                    return False
            elif m < base.slope:
                return False
        return True


# Values compare at _allowance below, times the terms they sum.
# DEFAULT_TOLERANCE bounds only marks a user writes and the SVG's jump marks.
DEFAULT_TOLERANCE = 1e-9


def _at_least(v: float, ref: float, size: float) -> bool:
    # v >= ref up to the allowance of `size`, the terms the caller names:
    # where they cancel, a value is known only to the rounding of those terms.
    return v >= ref - _allowance(size)


# The rounding of a latency's two terms and of their sum, and that of a
# flow one double off its exact value, stay well inside this many ulps of
# the terms' size.
_ROUNDING = 4.0 * math.ulp(1.0)


def _allowance(size: float) -> float:
    # _ROUNDING of the terms' size, plus one subnormal: below the normal
    # range rounding is absolute.
    return _ROUNDING * size + math.ulp(0.0)


class _FlowFields(NamedTuple):
    rate: float
    flows: tuple[float, ...]
    latency_family: str


class FlowProfile(_Checked, _FlowFields):
    """Per-link flows for one demand rate.

    ``latency_family`` records which latencies the profile was computed
    against ("original" or "modified").  The rate must pass :func:`check_rate`
    and is kept as 0.0 when it is -0.0, so every solver reports 0.0 there;
    flows must be non-negative, not NaN, and sum to the rate within the
    equilibrium certificate's allowance per flow: 4 ulps of the rate plus
    one subnormal.  A flow below 0 by no more than that is clamped to 0.
    """

    __slots__ = ()

    def __new__(cls, rate: float, flows: Iterable[float],
                latency_family: str = "original") -> FlowProfile:
        check_rate(rate)
        rate = float(rate) + 0.0  # -0.0 + 0.0 is 0.0
        flows = [_real(f) for f in flows]
        # Each flow rounds within a few ulps of the rate, or one subnormal
        # below the normal range, so the sum within that per flow.
        slack = len(flows) * _allowance(rate)
        for i, f in enumerate(flows):
            if not f >= -slack:
                raise InvalidModelValue(f"flow {i} is negative: {f}" if f == f else f"flow {i} is NaN")
            if f < 0.0:
                flows[i] = 0.0
        total = math.fsum(flows)
        if abs(total - rate) > slack:
            raise InvalidModelValue(f"flows sum to {total}, expected {rate}")
        return tuple.__new__(cls, (rate, tuple(flows), latency_family))

    @property
    def used_count(self) -> int:
        return sum(1 for f in self.flows if f > 0.0)
