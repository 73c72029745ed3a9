"""Efficiency ratios and worst-case bounds.

The central quantity is the ratio of equilibrium cost to optimal cost as a
function of demand.  :func:`cost_pieces` cuts the demand axis, once per
network and mechanism, wherever either cost changes its closed form: a
selfish or optimal flow opening a link, a threshold stage freezing, a
plateau mark.  On each piece both costs are exact quadratics in the local
demand u = r - lo, so a curve sample is a lookup plus Horner evaluation, and
the supremum is a scan over the pieces: both ends of each piece (the right
limit at a jump comes from the piece that starts there), the roots of the
quadratic where the ratio's derivative vanishes inside a piece, and the
ratio of leading coefficients on the unbounded last piece.  Closed-form
worst-case bounds for the mechanisms live here as well.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .equilibrium import _cost_segs, _keep, _Seg, _swept, nash_flow, water_fill
from .errors import (
    BadParamCount,
    CostOverflow,
    CostUnderflow,
    EmptyNetwork,
    InvalidModelValue,
    NegativeRate,
    NotContinuousAtEquilibrium,
    ParamOutOfRange,
    RatioOutOfRange,
    SchemaError,
)
from .mechanisms import (
    PlateauParams,
    ThresholdParams,
    _beta_for,
    _check_multipliers,
    _hold_peak,
    _jump_peak,
    balanced_alpha,
)
from .model import (
    INF,
    _LEAST_NORMAL,
    ParallelNetwork,
    PiecewiseLatency,
    _Checked,
    _allowance,
    _real,
)

if TYPE_CHECKING:
    # Imported where the exact recurrence runs: `import anarchy` stays lean.
    from fractions import Fraction

# A mechanism is carried around as (parameters, modified latencies).
Mechanism = tuple[Union[ThresholdParams, PlateauParams], Sequence[PiecewiseLatency]]


class CurveSample(NamedTuple):
    """One point of the cost-ratio curve."""

    r: float
    cost_num: float
    cost_den: float
    ratio: float
    regime: str


class _BoundFields(NamedTuple):
    name: str
    value: float
    inputs: tuple[float, ...]
    formula: str
    details: Mapping[str, object] | None
    strictly_below_four_thirds: bool | None


class BoundReport(_Checked, _BoundFields):
    """A named worst-case bound with the inputs that produced it.

    A value below 1, or NaN, raises InvalidModelValue.
    """

    __slots__ = ()

    def __new__(cls, name: str, value: float, inputs: tuple[float, ...], formula: str,
                details: Mapping[str, object] | None = None,
                strictly_below_four_thirds: bool | None = None) -> BoundReport:
        if not value >= 1.0:
            raise InvalidModelValue(f"bound {name} below 1: {value}")
        return tuple.__new__(cls, (name, value, inputs, formula, details,
                                   strictly_below_four_thirds))


class CostPiece(NamedTuple):
    """Demands from lo to hi on which both costs keep one quadratic form.

    The piece holds the demands strictly between lo and hi, hi itself when
    ``closed``, and lo when the piece before it is not closed (the first
    piece starts open at 0).  A piece with lo == hi holds that one demand.
    ``num`` and ``den`` are the coefficients (c0, c1, c2) of the equilibrium
    and the optimal cost as c0 + c1*u + c2*u^2 in u = r - lo.
    """

    lo: float
    hi: float
    closed: bool
    regime: str
    num: tuple[float, float, float]
    den: tuple[float, float, float]

    def costs(self, u: float) -> tuple[float, float]:
        """Equilibrium and optimal cost at demand lo + u on this piece."""
        n0, n1, n2 = self.num
        d0, d1, d2 = self.den
        return n0 + u * (n1 + u * n2), d0 + u * (d1 + u * d2)


def _cut(segs: Iterator[_Seg], marks: Iterable[tuple[float, bool, str]]) -> Iterator[_Seg]:
    # Tag and cut segments at marks (hi, closed, tag), the last one at inf;
    # segments that end within demand already covered are dropped.
    lo, seg = 0.0, next(segs)
    for hi, closed, tag in marks:
        while seg.hi < hi:
            if seg.hi > lo:
                yield _Seg(seg.hi, seg.closed, tag, *seg[3:])
                lo = seg.hi
            seg = next(segs)
        if hi > lo:
            yield _Seg(hi, closed, tag, *seg[3:])
            lo = hi


def cost_pieces(net: ParallelNetwork, mechanism: Mechanism | None = None) -> tuple[CostPiece, ...]:
    """Cut the demand axis into pieces on which both costs are quadratics.

    The numerator is the selfish cost of a plain network, or the costliest
    equilibrium cost on a mechanism's latencies, from one sweep over their
    supply events; the denominator is the optimal cost.  Both plain costs
    are anchored where a link opens and carried from piece to piece by
    adding non-negative terms, so neither cancels; past an overflowed
    efficiency they read NaN, which the ratio rejects.  Pieces follow in
    demand order, cover every demand > 0 exactly once and end with an
    unbounded piece.  A mechanism's numerator is cut and tagged at its
    parameters' ``marks``.  A regime tag names the numerator's form
    (``nash{j}``, a threshold ``stage{s}`` or a plateau region) and the
    optimal link count; at a demand where the two costs change form on
    different sides, a one-demand piece carries the pair that holds there.
    Built in O(k), or O(n log n) in the n segments of a mechanism's
    latencies.

    Kept for the last network, parameters and latencies, keyed on each of
    them, so the curve, its breakpoints, its tail and its supremum on one
    mechanism share one build, and the sweep it reads is the one
    :func:`~anarchy.equilibrium.worst_equilibrium_cost` looks rates up in.

    A mechanism that is not a pair of parameters with ``marks`` and an
    iterable of latencies raises SchemaError, a latency count other than
    ``net.k`` BadParamCount, a latency that is not a PiecewiseLatency
    SchemaError naming its index, and one that does not dominate its link
    (:meth:`~anarchy.model.PiecewiseLatency.dominates`) ParamOutOfRange
    naming its index.
    """
    params, lats = (None, ()) if mechanism is None else _parts(net, mechanism)
    return _keep("pieces", (net, params, *lats), lambda: _pieces(net, params, lats))


def _parts(net: ParallelNetwork, mechanism: Mechanism) -> Mechanism:
    # The mechanism's parameters and its latencies, read once as a tuple.
    try:
        params, lats = mechanism
        lats = tuple(lats)
    except (TypeError, ValueError) as exc:
        raise SchemaError("a mechanism is a pair (parameters, latencies)") from exc
    if not hasattr(params, "marks"):
        raise SchemaError(f"mechanism parameters {type(params).__name__} carry no marks")
    if len(lats) != net.k:
        raise BadParamCount(f"mechanism has {len(lats)} latencies for {net.k} links")
    return params, lats


def _pieces(net: ParallelNetwork, params: ThresholdParams | PlateauParams | None,
            lats: tuple[PiecewiseLatency, ...]) -> tuple[CostPiece, ...]:
    if params is None:
        num = _cost_segs(net, 1.0)
    else:
        # A latency that is not a PiecewiseLatency is the sweep's to refuse.
        for i, (lat, link) in enumerate(zip(lats, net.links)):
            if isinstance(lat, PiecewiseLatency) and not lat.dominates(link):
                raise ParamOutOfRange(f"mechanism latency {i} undercuts link {i} of the network")
        num = _cut(iter(_swept(lats)[0]), params.marks)
    nums, dens = list(num), list(_cost_segs(net, 0.5))
    pieces: list[CostPiece] = []

    def add(lo: float, hi: float, closed: bool, n: _Seg, d: _Seg) -> None:
        if (hi > lo or closed) and hi > 0.0:
            pieces.append(CostPiece(lo, hi, closed, f"{n.tag}/{d.tag}", n.at(lo), d.at(lo)))

    lo, i, j = 0.0, 0, 0
    while True:
        n, d = nums[i], dens[j]
        hi = min(n.hi, d.hi)
        if hi == INF:
            add(lo, INF, False, n, d)
            return tuple(pieces)
        n_next = nums[i + 1] if n.hi == hi else n
        d_next = dens[j + 1] if d.hi == hi else d
        # The segments that hold the demand hi itself.
        n_at = n if n.closed or n.hi > hi else n_next
        d_at = d if d.closed or d.hi > hi else d_next
        if n_at is n and d_at is d:
            add(lo, hi, True, n, d)
        else:
            add(lo, hi, False, n, d)
            if n_at is not n_next or d_at is not d_next:
                add(hi, hi, True, n_at, d_at)
        i, j, lo = i + (n.hi == hi), j + (d.hi == hi), hi


def _tail(piece: CostPiece) -> float:
    # Limit of the ratio on the unbounded last piece: the ratio of leading
    # coefficients, quadratic unless a zero-slope link makes both linear.
    (_, n1, n2), (_, d1, d2) = piece.num, piece.den
    return n2 / d2 if d2 > 0.0 else n1 / d1


def curve_breakpoints(net: ParallelNetwork, mech: Mechanism | None = None) -> tuple[float, ...]:
    """Demands where either cost changes its quadratic piece."""
    out: list[float] = []
    for piece in cost_pieces(net, mech)[:-1]:
        if not out or piece.hi != out[-1]:
            out.append(piece.hi)
    return tuple(out)


def ratio_curve(net: ParallelNetwork, mechanism: Mechanism | None,
                r_grid: Sequence[float]) -> list[CurveSample]:
    """Evaluate the cost ratio on a grid of positive demands."""
    pieces = cost_pieces(net, mechanism)
    his = [p.hi for p in pieces]
    samples = []
    for raw in r_grid:
        r = _real(raw)
        if not 0.0 < r < INF:
            raise NegativeRate(f"curve rates must be positive and finite, got {r!r}")
        i = bisect_left(his, r)
        piece = pieces[i]
        if his[i] == r and not piece.closed:
            piece = pieces[i + 1]
        lo, _, _, regime, (n0, n1, n2), (d0, d1, d2) = piece
        u = r - lo
        num, den = n0 + u * (n1 + u * n2), d0 + u * (d1 + u * d2)
        # tuple.__new__ builds the same sample as CurveSample(...) without
        # the Python call of its generated __new__, at a third of the cost.
        samples.append(tuple.__new__(CurveSample, (r, num, den, _ratio(num, den, r), regime)))
    return samples


def tail_ratio(net: ParallelNetwork, mechanism: Mechanism | None = None) -> float:
    """Limit of the cost ratio as demand grows without bound."""
    return _tail(cost_pieces(net, mechanism)[-1])


def _ratio(num: float, den: float, r: float) -> float:
    # Both costs are positive and finite at every positive demand, but can
    # overflow, read NaN past an overflowed efficiency, or leave the normal
    # range, where they lose their relative precision.
    if den == 0.0:
        raise CostUnderflow(f"the optimal cost underflows to 0 at demand {r!r}")
    if not (num < INF and 0.0 < den < INF):
        raise CostOverflow(f"the costs overflow at demand {r!r}: {num!r} / {den!r}")
    if den < _LEAST_NORMAL:
        raise CostUnderflow(f"the optimal cost {den!r} at demand {r!r} is below the normal range")
    return num / den


def _quad_roots(A: float, B: float, C: float) -> list[float]:
    if A == 0.0:
        return [-C / B] if B != 0.0 else []
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return []
    # The root away from zero first, the other from the product C / A, so
    # neither subtracts two nearly equal numbers.
    q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    return [q / A, C / q] if q != 0.0 else [0.0]


def ratio_sup(net: ParallelNetwork, mechanism: Mechanism | None = None) -> tuple[float, float]:
    """Supremum of the cost ratio over all demands, with its location.

    Scans the pieces of :func:`cost_pieces`: each piece's value at both
    ends, which covers the value at every piece boundary and the one-sided
    limits of a jump, and the zeros of n'd - nd' inside the piece, a
    quadratic in u.  The limit on the unbounded last piece counts last.
    Ties go to the smallest demand; a supremum attained only in the limit of
    large demand reports location inf.  A single piece has a constant ratio,
    reported at demand 1.
    """
    pieces = cost_pieces(net, mechanism)
    best_val, best_r = -INF, INF
    if len(pieces) == 1:
        best_val, best_r = _ratio(*pieces[0].costs(1.0), 1.0), 1.0
    for lo, hi, _, _, (n0, n1, n2), (d0, d1, d2) in pieces:
        width = hi - lo
        roots = _quad_roots(n2 * d1 - n1 * d2, 2.0 * (n2 * d0 - n0 * d2), n1 * d0 - n0 * d1)
        us = [u for u in roots if 0.0 < u < width]
        if len(us) == 2 and us[0] > us[1]:
            us.reverse()
        if lo > 0.0:
            us.insert(0, 0.0)
        if width < INF:
            us.append(width)
        for u in us:
            r = hi if u == width else lo + u
            val = _ratio(n0 + u * (n1 + u * n2), d0 + u * (d1 + u * d2), r)
            if val > best_val:
                best_val, best_r = val, r
    tail = _tail(pieces[-1])
    if tail > best_val:
        best_val, best_r = tail, INF
    return best_val, best_r


def two_link_simple_bound(R: float) -> BoundReport:
    """Worst-case ratio of the two-link threshold mechanism with multiplier R.

    max(1 + 1/R, (4+4R)/(4+3R)); the two sides meet at R = 4 where the bound
    is 5/4.  Where 4R overflows the benign side is its limit 4/3.
    """
    (R,) = _check_multipliers((R,))
    freeze_side = 1.0 + 1.0 / R
    top = 4.0 + 4.0 * R
    benign_side = top / (4.0 + 3.0 * R) if top < INF else 4.0 / 3.0
    return BoundReport(
        name="two_link_threshold",
        value=max(freeze_side, benign_side),
        inputs=(R,),
        formula="max(1 + 1/R, (4+4R)/(4+3R))",
        details={"freeze_side": freeze_side, "benign_side": benign_side},
    )


def benign_bound(R_values: Sequence[float]) -> BoundReport:
    """Ratio bound when no link is super-efficient: 4P^2/(3P^2+1), P = prod(1+R_i).

    Neither rounding nor an overflow of 4P^2 takes it past its limit 4/3.
    """
    Rs = _check_multipliers(R_values)
    P = math.prod(1.0 + x for x in Rs)
    top = 4.0 * P * P
    value = min(top / (3.0 * P * P + 1.0), 4.0 / 3.0) if top < INF else 4.0 / 3.0
    return BoundReport(
        name="benign",
        value=value,
        inputs=Rs,
        formula="4P^2/(3P^2+1), P = prod(1+R_i)",
        details={"P": P},
    )


def _prepend(P: Fraction, value: Fraction, R: Fraction | int) -> tuple[Fraction, Fraction]:
    """One step of the exact recurrence: put multiplier R in front of a suffix.

    P is the product of (1 + R_j) over the suffix and ``value`` its
    recurrence value (both 1 for the empty suffix); returns both for the
    longer suffix.
    """
    P *= 1 + R
    return P, max(4 * P * P / (3 * P * P + 1), (R + 1) ** 2 * value / (R * R))


def _exact_recurrence(Rs: Sequence[Fraction]) -> Fraction:
    from fractions import Fraction

    P = value = Fraction(1)
    for R in reversed(Rs):
        P, value = _prepend(P, value, R)
    return value


def recurrence_bound(R_values: Sequence[float]) -> BoundReport:
    """Worst-case ratio of the threshold mechanism via downward recursion.

    The value V_i for multipliers R_i..R_{k-1} is the max of the all-benign
    bound and, over every position j that could host the first
    super-efficient link, max(benign bound of R_i..R_{j-1}, (1+1/R_j)^2
    V_{j+1}).  With every multiplier >= 2 two dominance facts reduce this to
    one backward pass, V_i = max(4P_i^2/(3P_i^2+1), (1+1/R_i)^2 V_{i+1}) with
    P_i = prod_{j>=i}(1+R_j) and V_k = 1:

    - the benign bound 4P^2/(3P^2+1) grows with P, and P grows with every
      factor 1+R_j > 1, so no prefix's benign bound exceeds the suffix's;
    - V_{i+1} is at least every later jump term (1+1/R_j)^2 V_{j+1}, j > i,
      and (1+1/R_i)^2 > 1, so the jump term at j = i dominates them all.

    Evaluated in exact rational arithmetic so the strict comparison against
    4/3 stays meaningful when doubles saturate.  Multipliers beyond the
    float range raise ParamOutOfRange.
    """
    from fractions import Fraction

    _check_multipliers(R_values)
    Rs = [Fraction(x) for x in R_values]
    exact = _exact_recurrence(Rs)
    return BoundReport(
        name="recurrence",
        value=float(exact),
        inputs=tuple(float(x) for x in Rs),
        formula="max over first super-efficient position of benign and jump terms",
        details={
            "exact_numerator": str(exact.numerator),
            "exact_denominator": str(exact.denominator),
        },
        strictly_below_four_thirds=bool(exact < Fraction(4, 3)),
    )


def greedy_parameters(k: int) -> list[int]:
    """Integer multipliers keeping the recurrence bound strictly below 4/3.

    Works bottom-up: each new multiplier R is the smallest integer >= 2 with
    (1 + 1/R)^2 times the already-built suffix value below 4/3.  The suffix
    value advances by one exact recurrence step per multiplier, so the
    guarantee is exact even when the integers get large.  The multipliers'
    digit counts roughly triple per link and leave the float range, which
    the threshold mechanism needs, from 8 links on; such k raise
    ParamOutOfRange.
    """
    from fractions import Fraction

    if k < 1:
        raise EmptyNetwork(f"need at least one link, got k={k}")
    Rs: list[int] = []
    P = inner = Fraction(1)
    four_thirds = Fraction(4, 3)
    for _ in range(k - 1):
        p, q = inner.numerator, inner.denominator
        # (4q - 3p) R^2 - 6p R - 3p > 0 with lead coefficient positive
        lead = 4 * q - 3 * p
        disc = 36 * p * p + 12 * p * lead
        R = max(2, (6 * p + math.isqrt(disc)) // (2 * lead) + 1)
        while not Fraction(R + 1, R) ** 2 * inner < four_thirds:
            R += 1
        if R > sys.float_info.max:
            raise ParamOutOfRange(
                f"greedy multipliers exceed the float range from {len(Rs) + 2} links on, "
                f"got k={k}"
            )
        Rs.append(R)
        P, inner = _prepend(P, inner, R)
    return Rs[::-1]


def lower_bound_value(R: float) -> BoundReport:
    """Best ratio any latency modification can reach on a hard two-link family.

    The family has unit first slope, second slope 1/R and unit intercept gap,
    2 <= R <= 4.  Holding the first link from demand x1 on, the ratio peaks
    just before the second link opens and just after the flow jumps onto
    it; the bound is the larger peak at the x1 that balances them, the one
    the plateau mechanism uses (:func:`~anarchy.mechanisms.balanced_alpha`),
    capped at 6/5 (the unmodified ratio at the breakpoint).
    """
    R = _real(R)
    if not 2.0 <= R <= 4.0:
        raise RatioOutOfRange(f"slope ratio must be in [2, 4], got {R}")
    x1, root_R = balanced_alpha(R), math.sqrt(R)
    return BoundReport(
        name="two_link_lower",
        value=min(1.2, max(_hold_peak(R, x1), _jump_peak(R, root_R, x1))),
        inputs=(R,),
        formula="min(6/5, min over hold flow of max(hold peak, jump peak))",
        details={"x1": x1, "jump_rate": max(1.0, _beta_for(R, root_R, x1))},
    )


class ContinuityCheck(NamedTuple):
    """Outcome of the no-improvement check for continuous modifications."""

    ok: bool
    modified_cost: float
    nash_cost: float

    def __bool__(self) -> bool:
        return self.ok


def continuity_no_improvement_check(net: ParallelNetwork,
                                    modified: Sequence[PiecewiseLatency],
                                    rate: float) -> ContinuityCheck:
    """Modifications continuous at their equilibrium cannot beat the selfish cost.

    Solves the modified equilibrium by water-filling, requires each modified
    latency to be continuous at its equilibrium flow (else raises
    NotContinuousAtEquilibrium) and checks the modified equilibrium cost is
    at least the unmodified one.  A latency counts as continuous where its
    two limits differ by no more than the rounding allowance of the terms
    they sum; the costs compare at the allowance of k + 1 terms of the
    selfish cost.
    """
    res = water_fill(modified, rate, latency_family="modified")
    for i, f in enumerate(res.profile.flows):
        left, left_terms, right, right_terms = modified[i].limits(f)
        # Four terms: each limit sums slope*flow and an offset.
        if not abs(right - left) <= _allowance(left_terms + right_terms):
            raise NotContinuousAtEquilibrium(
                f"link {i} jumps at its equilibrium flow {f}: {left} -> {right}"
            )
    base = nash_flow(net, rate).cost
    # k + 1 terms: k link costs and their sum, each rounded.
    ok = res.cost >= base - (net.k + 1) * _allowance(base)
    return ContinuityCheck(ok, modified_cost=res.cost, nash_cost=base)
