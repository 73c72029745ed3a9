"""Coordination mechanisms that modify latencies to tame selfish routing.

Two constructions are provided.  The threshold mechanism caps a prefix of
links at their selfish flows the moment demand reaches half the breakpoint
of a "super-efficient" link (one whose efficiency exceeds a chosen multiple
of the prefix it joins); the construction recurses on the remaining suffix.
The plateau mechanism, for two links, flattens the first latency between
two flow marks so the second link opens earlier, trading a bounded jump for
a better worst-case ratio.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from typing import NamedTuple

from .equilibrium import _profile
from .errors import (
    BadParamCount,
    NotTwoLinks,
    ParamOutOfRange,
    ParamTooSmall,
    RatioOutOfRange,
    SchemaError,
)
from .model import (
    DEFAULT_TOLERANCE,
    INF,
    AffineLatency,
    FlowProfile,
    ParallelNetwork,
    PiecewiseLatency,
    _allowance,
    _real,
    check_rate,
    real_number,
)

# Below this slope ratio the unmodified two-link instance already meets the
# plateau mechanism's 1.192 target, so the identity modification is used.
MIN_PLATEAU_RATIO = 96.0 / 53.0
PLATEAU_TARGET = 1.192


def _check_multipliers(values: Sequence[float]) -> tuple[float, ...]:
    """The multipliers as floats, each checked as given to be >= 2 and within
    the float range first, so that an integer past that range cannot overflow."""
    for x in values:
        if not x >= 2:
            raise ParamTooSmall(f"multipliers must be >= 2, got {x}")
        if x > sys.float_info.max:
            raise ParamOutOfRange("multipliers must be finite and within the float range")
    return tuple(float(x) for x in values)


class FreezeStage(NamedTuple):
    """One step of the threshold recursion.

    From total demand ``global_start_rate`` on the stage fills ``segment``,
    links ``start`` up to the next stage's start (stage 0 keeps the whole
    network), which freeze there at their caps in ``ThresholdParams.thresholds``;
    the last stage runs to the last link and absorbs everything that remains.
    """

    start: int
    global_start_rate: float
    segment: ParallelNetwork


class ThresholdParams(NamedTuple):
    """Threshold mechanism state built for one network.

    ``thresholds`` holds each frozen link's cap and None for a link that
    never freezes; stage s ends at ``freeze_points[s]``.
    """

    R: tuple[float, ...]
    thresholds: tuple[float | None, ...]
    freeze_points: tuple[float, ...]
    stages: tuple[FreezeStage, ...]

    @property
    def marks(self) -> tuple[tuple[float, bool, str], ...]:
        """Regime cuts (end, closed, tag): stage s holds the demands up to
        and including freeze point s, and the last stage all the rest."""
        return tuple((f, True, f"stage{s}") for s, f in enumerate((*self.freeze_points, INF)))


def build_threshold_mechanism(
    net: ParallelNetwork, R: Sequence[float]
) -> tuple[ThresholdParams, list[PiecewiseLatency]]:
    """Cap links at their running flows ahead of each super-efficient link.

    R holds k-1 multipliers, all >= 2.  Link t+1 is super-efficient when
    efficiency[t+1] > R[t] * (total efficiency of links 0..t).  When total
    demand reaches half the breakpoint of a super-efficient link, every link
    below it freezes at the flow it carries right then; further demand fills
    the remaining links selfishly until the next super-efficient link, and so
    on.  A link whose breakpoint overflows never opens at a finite demand,
    and neither does any link after it, so it triggers no freeze.  Links
    above the last trigger (always including the last link) keep their
    latencies.
    """
    if len(R) != net.k - 1:
        raise BadParamCount(f"need {net.k - 1} parameters for {net.k} links, got {len(R)}")
    R = _check_multipliers(R)

    triggers = [t + 1 for t in range(net.k - 1)
                if net.efficiency[t + 1] > R[t] * net.eff_prefix[t]
                and net.breakpoints[t + 1] < INF]
    thresholds: list[float | None] = [None] * net.k
    freeze_points = tuple(net.breakpoints[t] / 2.0 for t in triggers)
    stages = [FreezeStage(0, 0.0, net)]
    for t, end, freeze in zip(triggers, [*triggers[1:], net.k], freeze_points):
        stage = stages[-1]
        frozen = _profile(stage.segment, freeze - stage.global_start_rate, 1.0)[0]
        thresholds[stage.start:t] = frozen.flows[: t - stage.start]
        stages.append(FreezeStage(t, freeze, net.segment(t, end)))

    params = ThresholdParams(
        R=R,
        thresholds=tuple(thresholds),
        freeze_points=freeze_points,
        stages=tuple(stages),
    )
    lats = [
        PiecewiseLatency.from_affine(link, cap=INF if cap is None else cap)
        for link, cap in zip(net.links, params.thresholds)
    ]
    return params, lats


def mn_flow(net: ParallelNetwork, params: ThresholdParams, rate: float) -> FlowProfile:
    """Equilibrium flow under the threshold modification.

    Demand fills each stage's segment selfishly until the stage freezes,
    then spills into the next segment; below the first freeze point this is
    the unmodified selfish flow.  Links past the segment carry nothing.
    Parameters other than ThresholdParams raise SchemaError, and those
    built for another link count BadParamCount.
    """
    _check_threshold_params(net, params)
    check_rate(rate)
    # Stage s holds the demands in (freeze_points[s-1], freeze_points[s]],
    # the same cut that cost_pieces makes; the links before it are frozen.
    stage = params.stages[bisect_left(params.freeze_points, rate)]
    inner = _profile(stage.segment, rate - stage.global_start_rate, 1.0)[0].flows
    flows = params.thresholds[:stage.start] + inner + (0.0,) * (net.k - stage.start - len(inner))
    return FlowProfile(rate=rate, flows=flows, latency_family="modified")


def _check_threshold_params(net: ParallelNetwork, params: object) -> None:
    if not isinstance(params, ThresholdParams):
        raise SchemaError(f"threshold mechanism needs ThresholdParams, got {type(params).__name__}")
    if len(params.thresholds) != net.k:
        raise BadParamCount(f"parameters built for {len(params.thresholds)} links, "
                            f"network has {net.k}")


class LinkUsageCheck(NamedTuple):
    """Outcome of the usage-order check, with the first offending link if any."""

    ok: bool
    link: int | None = None
    first_used_rate: float | None = None
    opt_start_rate: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def mn_uses_links_no_earlier_than_opt(net: ParallelNetwork,
                                      params: ThresholdParams) -> LinkUsageCheck:
    """Verify the modified flow never opens a link before the optimum would.

    The rate at which the modified flow first loads link h is the stage's
    global start plus the segment breakpoint of h; it must be at least half
    the global breakpoint of h, less the rounding allowance of k terms of
    that size.  Frozen-at-zero links never open.  Parameters are checked
    as in :func:`mn_flow`.
    """
    _check_threshold_params(net, params)
    ends = [stage.start for stage in params.stages[1:]] + [net.k]
    for stage, end in zip(params.stages, ends):
        for h in range(stage.start, end):
            if params.thresholds[h] == 0.0:
                continue  # frozen before ever opening
            first_used = stage.global_start_rate + stage.segment.breakpoints[h - stage.start]
            opt_start = net.breakpoints[h] / 2.0
            # k terms: each side sums at most k non-negative rounded terms.
            if first_used < opt_start - net.k * _allowance(opt_start):
                return LinkUsageCheck(False, link=h, first_used_rate=first_used,
                                      opt_start_rate=opt_start)
    return LinkUsageCheck(True)


def _two_links(net: ParallelNetwork) -> tuple[AffineLatency, AffineLatency]:
    # The plateau construction needs exactly two links, the second one rising.
    if net.k != 2:
        raise NotTwoLinks(f"plateau mechanism needs 2 links, got {net.k}")
    first, second = net.links
    if second.slope <= 0.0:
        raise ParamOutOfRange("plateau mechanism needs a positive second slope")
    return first, second


class PlateauParams(NamedTuple):
    """Two-link plateau marks and the rates they induce.

    The first latency is held constant at its hold_end value while flow is
    between hold_start and hold_end.  jump_rate is the demand where the
    second link's latency catches up with the plateau (the modified flow
    jumps there); resume_rate is where the modified flow rejoins the
    unmodified selfish flow.
    """

    hold_start: float
    hold_end: float
    jump_rate: float
    resume_rate: float
    slope_ratio: float

    @property
    def marks(self) -> tuple[tuple[float, bool, str], ...]:
        """Regime cuts (end, closed, tag): ``pre`` up to and including the
        hold start, ``hold`` up to and including the jump rate, ``jump``
        below the resume rate and ``post`` from it on."""
        return ((self.hold_start, True, "pre"), (self.jump_rate, True, "hold"),
                (self.resume_rate, False, "jump"), (INF, False, "post"))

    @classmethod
    def from_flows(cls, net: ParallelNetwork, hold_start: float,
                   hold_end: float) -> "PlateauParams":
        first, second = _two_links(net)
        a1, b1 = first.slope, first.intercept
        a2, b2 = second.slope, second.intercept
        hold_start, hold_end = _real(hold_start), _real(hold_end)
        if not (math.isfinite(hold_start) and math.isfinite(hold_end)):
            raise ParamOutOfRange(f"plateau marks must be finite, got {hold_start}, {hold_end}")
        r2 = net.breakpoints[1]
        # Given marks: solved, or written by a user to ten digits.
        tol = DEFAULT_TOLERANCE * r2
        if not (r2 / 2.0 - tol <= hold_start <= r2 + tol):
            raise ParamOutOfRange(
                f"hold_start {hold_start} outside [{r2 / 2.0}, {r2}]"
            )
        if hold_end < r2 - tol:
            raise ParamOutOfRange(f"hold_end {hold_end} below breakpoint {r2}")
        if hold_end < hold_start:
            raise ParamOutOfRange("hold_end must be >= hold_start")
        plateau_value = a1 * hold_end + b1
        jump_rate = hold_start + (plateau_value - b2) / a2
        if jump_rate < r2 - tol:
            raise ParamOutOfRange(f"induced jump rate {jump_rate} below breakpoint {r2}")
        return cls(
            hold_start=hold_start,
            hold_end=hold_end,
            jump_rate=jump_rate,
            resume_rate=jump_rate - hold_start + hold_end,
            slope_ratio=a1 / a2,
        )


def build_plateau_mechanism(
    net: ParallelNetwork, params: PlateauParams
) -> tuple[PiecewiseLatency, PiecewiseLatency]:
    """Hold the first latency flat between the two marks; second link unchanged.

    When the slope ratio is at most 96/53 the unmodified instance already
    meets the target, so both latencies are returned as-is.  Either way the
    parameters must have been built for this network's slope ratio;
    parameters other than PlateauParams raise SchemaError.
    """
    if not isinstance(params, PlateauParams):
        raise SchemaError(f"plateau mechanism needs PlateauParams, got {type(params).__name__}")
    first, second = _two_links(net)
    ratio = first.slope / second.slope
    # One term: the same network gives the ratio to the bit, a rescaled copy within 2 ulps.
    if abs(params.slope_ratio - ratio) > _allowance(ratio):
        raise ParamOutOfRange("parameters were built for a different network")
    unchanged = PiecewiseLatency.from_affine(second)
    if ratio <= MIN_PLATEAU_RATIO or params.hold_end <= params.hold_start:
        return PiecewiseLatency.from_affine(first), unchanged
    modified = PiecewiseLatency(
        starts=(0.0, params.hold_start, params.hold_end),
        slopes=(first.slope, 0.0, first.slope),
        offsets=(first.intercept, first.value(params.hold_end), first.intercept),
    )
    return modified, unchanged


# Normalized peak-ratio terms of the plateau construction, at slope ratio
# R (root_R is math.sqrt(R)): alpha and beta are the hold start and jump
# rate in breakpoint units.  The hold peak is the ratio just before the
# second link opens, the jump peak the ratio just after the modified flow
# jumps, at the beta that minimizes it for the given alpha.
def _hold_peak(R: float, alpha: float) -> float:
    return 4.0 * (R + 1.0) * alpha * alpha / (4.0 * alpha * R - R + 4.0 * alpha * alpha)


def _beta_for(R: float, root_R: float, alpha: float) -> float:
    return (R + root_R * math.sqrt(R + 4.0 * alpha * (R - alpha))) / (4.0 * alpha)


def _jump_peak(R: float, root_R: float, alpha: float) -> float:
    b = _beta_for(R, root_R, alpha)
    return 4.0 * b * (R + 1.0) * (b - alpha + R) / (R * (4.0 * b * b + 4.0 * b * R - R))


def _peak_gap(R: float, root_R: float, alpha: float) -> float:
    return _hold_peak(R, alpha) - _jump_peak(R, root_R, alpha)


def _gap_bracket(R: float, root_R: float, lo: float, at_lo: float,
                 hi: float, at_hi: float, width: float) -> tuple[float, float]:
    # Illinois false position on [lo, hi], with gap < 0 at lo (or lo the
    # range's own end) and gap >= 0 at hi, until narrower than width.  A
    # step that would leave the bracket, or divide by a difference that is
    # not positive (equal values, a NaN), bisects instead.  The bracket is
    # only where balanced_alpha's exact search starts, so the step cap only
    # bounds the work.
    side = 0
    for _ in range(64):
        if hi - lo < width:
            break
        drop = at_hi - at_lo
        x = hi - at_hi * (hi - lo) / drop if drop > 0.0 else lo
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        at_x = _peak_gap(R, root_R, x)
        if at_x < 0.0:
            lo, at_lo = x, at_x
            if side < 0:
                at_hi *= 0.5
            side = -1
        else:
            hi, at_hi = x, at_x
            if side > 0:
                at_lo *= 0.5
            side = 1
    return lo, hi


def _sextic(R: float) -> tuple[int, ...]:
    # Clearing the square root from hold peak = jump peak leaves a sextic
    # F(alpha) = 0, with F(1/2) = -(3R^2 + 2R - 1)/4 below 0 like the gap.
    # These are q^4 times its coefficients, from alpha^6 down, at R = p/q.
    p, q = R.as_integer_ratio()
    p2, pq, q2 = p * p, p * q, q * q
    return (16 * q2 * q2, 32 * p2 * q2, 8 * p * (2 * p2 * (p + q) - 6 * pq * q - q2 * q),
            -8 * p2 * (4 * p2 + 3 * pq - q2), p2 * (24 * p2 + 12 * pq + q2),
            -2 * p2 * p * (4 * p + q), p2 * p2)


def _past_root(terms: Sequence[int], n: int) -> bool:
    # F >= 0 halfway between the doubles n/2^53 and (n + 1)/2^53, with the
    # terms scaled so that Horner's rule at 2n + 1 gives 2^324 q^4 F there.
    acc, x = 0, 2 * n + 1
    for c in terms:
        acc = acc * x + c
    return acc >= 0


def balanced_alpha(R: float) -> float:
    """Hold mark, in breakpoint units, that balances the two plateau peaks.

    The closed-form alpha0 makes the pre-opening peak exactly 1.192; the
    balanced alpha in [1/2, alpha0] equates it with the post-jump peak
    (minimized over the jump rate), which only lowers the maximum.  The
    jump peak's terms grow as R^3 and are largest at alpha = 1/2; where
    they overflow there, from R of about 2.4e102 on, it raises
    RatioOutOfRange.

    The answer is the balance correctly rounded: the double in [1/2, alpha0]
    where :func:`_sextic` turns from below 0 to at least 0 halfway to the
    next double up, or alpha0 if it never does.  For R above 96/53, alpha0
    is below 1, so those signs are exact integer signs.  They gallop out
    from the middle of the float secant's 1e-12 alpha0 bracket, then bisect.
    """
    root_R = math.sqrt(R)
    alpha0 = (149.0 * R + 2.0 * math.sqrt(894.0 * R * (R + 1.0))) / (2.0 * (125.0 * R - 24.0))
    at_lo = _peak_gap(R, root_R, 0.5)
    if not math.isfinite(at_lo):
        raise RatioOutOfRange(f"slope ratio {R} is too large: the plateau peaks overflow")
    terms = [c << 54 * i for i, c in enumerate(_sextic(R))]
    lo, hi = _gap_bracket(R, root_R, 0.5, at_lo, alpha0, _peak_gap(R, root_R, alpha0),
                          1e-12 * alpha0)
    # In units of 2^-53, F < 0 halfway above lo (first just below 1/2, as
    # F(1/2) < 0), and hi is alpha0 or F >= 0 halfway above it.  The probes
    # gallop out from the bracket's middle n until one crosses the root.
    n, step = int((lo + hi) * 2.0**52), 1
    lo, hi = (1 << 52) - 1, int(alpha0 * 2.0**53)
    while hi - lo > 1:
        if not lo < n < hi:
            n = (lo + hi) // 2
        if _past_root(terms, n):
            hi, n = n, n - step
        else:
            lo, n = n, n + step
        step *= 2
    return hi * 2.0**-53


def solve_plateau_params(net: ParallelNetwork) -> PlateauParams:
    """Pick plateau marks that balance the two worst-case peaks.

    The hold start is :func:`balanced_alpha` times the second link's
    breakpoint; the jump rate minimizes the post-jump peak for it, and the
    hold end follows from the jump rate.  Requires a slope ratio above
    96/53.
    """
    first, second = _two_links(net)
    R = first.slope / second.slope
    if R <= MIN_PLATEAU_RATIO:
        raise RatioOutOfRange(
            f"slope ratio {R} is at most {MIN_PLATEAU_RATIO}; no modification needed"
        )
    alpha = balanced_alpha(R)
    r2 = net.breakpoints[1]
    beta = _beta_for(R, math.sqrt(R), alpha)
    hold_start = alpha * r2
    hold_end = r2 * ((beta - alpha) / R + 1.0)
    return PlateauParams.from_flows(net, hold_start, hold_end)


def mechanism_to_dict(params: ThresholdParams | PlateauParams) -> dict:
    """JSON shape for a mechanism; derived fields are intentionally dropped.
    Parameters of any other type raise SchemaError."""
    if isinstance(params, ThresholdParams):
        return {"kind": "threshold", "R": list(params.R)}
    if isinstance(params, PlateauParams):
        return {"kind": "plateau", "x1": params.hold_start, "x2": params.hold_end}
    raise SchemaError(f"no JSON shape for mechanism parameters {type(params).__name__}")


def mechanism_from_dict(net: ParallelNetwork, obj: object):
    """Rebuild a mechanism from its JSON shape, recomputing all derived state.

    Returns (params, latencies).  A plateau entry without marks solves for
    the balanced ones.
    """
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise SchemaError('mechanism object must carry a "kind"')
    kind = obj["kind"]
    if kind == "threshold":
        R = obj.get("R")
        if not isinstance(R, Sequence) or isinstance(R, (str, bytes)):
            raise SchemaError('threshold mechanism needs an "R" list')
        try:
            R = [real_number(x) for x in R]
        except (TypeError, ValueError) as exc:
            raise SchemaError('"R" entries must be numeric') from exc
        return build_threshold_mechanism(net, R)
    if kind == "plateau":
        if "x1" in obj or "x2" in obj:
            try:
                x1 = real_number(obj["x1"])
                x2 = real_number(obj["x2"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError('plateau mechanism needs numeric "x1" and "x2"') from exc
            params = PlateauParams.from_flows(net, x1, x2)
        else:
            params = solve_plateau_params(net)
        return params, list(build_plateau_mechanism(net, params))
    raise SchemaError(f"unknown mechanism kind {kind!r}")
