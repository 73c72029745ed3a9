"""Selfish and system-optimal flows on parallel links.

Closed forms cover affine instances: a selfish (Nash) flow equalizes
latencies across used links, a system-optimal flow equalizes marginal
costs, and both open link j once demand passes a breakpoint (the optimum
at half the selfish breakpoint).  The water-filling solver handles the
modified, piecewise latencies produced by coordination mechanisms, where
jumps make equilibria set-valued.  One sweep over the latencies' supply
events gives, at every demand at once, both the water-fill level and the
costliest of those equilibria; it is kept for the last latencies seen, so
either at a rate is one lookup.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from itertools import islice
from operator import is_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    CertificateFailed,
    CostOverflow,
    EmptyNetwork,
    InfeasibleRate,
    InvalidModelValue,
    SchemaError,
    SegmentMismatch,
)
from .model import (
    INF,
    _LEAST_NORMAL,
    FlowProfile,
    ParallelNetwork,
    PiecewiseLatency,
    _allowance,
    check_rate,
)


class EquilibriumResult(NamedTuple):
    """Solved flow with its equalized level.

    ``level`` is the common latency of used links for equilibrium solves and
    the common marginal cost for optimal solves.  ``per_link_interval`` is
    only filled by the water-filling solver: the range of flows each link can
    carry across equilibria at this level, clipped to [0, rate].
    """

    profile: FlowProfile
    level: float
    cost: float
    per_link_interval: tuple[tuple[float, float], ...] | None = None

    @property
    def used_count(self) -> int:
        """Number of links with positive flow."""
        return self.profile.used_count


class EquilibriumCheck(NamedTuple):
    """Outcome of an equilibrium test, with a violating pair if any."""

    ok: bool
    violator: tuple[int, int] | None = None
    lhs: float | None = None
    rhs: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def _cost_sum(terms: Iterable[float]) -> float:
    # math.fsum of non-negative cost terms, inf where finite terms sum past
    # the float range (fsum raises OverflowError there).
    try:
        return math.fsum(terms)
    except OverflowError:
        return INF


def profile_cost(lats: Sequence[PiecewiseLatency], flows: Sequence[float]) -> float:
    """Total travel cost sum f_i * latency_i(f_i); zero-flow links cost zero.

    A cost past the float range is inf; unequal counts raise InvalidModelValue.
    """
    if len(lats) != len(flows):
        raise InvalidModelValue(f"latency count {len(lats)} differs from flow count {len(flows)}")
    return _cost_sum(f * lats[i].value(f) for i, f in enumerate(flows) if f > 0.0)


def _segment_index(breakpoints: Sequence[float], r: float, scale: float = 1.0) -> int:
    # Number of scaled breakpoints strictly below r; exactly at one the
    # smaller segment wins (the two closed forms agree there).
    return max(1, bisect_left(breakpoints, r, key=scale.__mul__))


def _split(net: ParallelNetwork, rate: float, scale: float) -> tuple[list[float], float]:
    # Flows and level of the selfish split with every efficiency 1/a, and
    # so every aggregate, times scale: 1 gives the selfish split, 1/2 the
    # optimal one.  A positive demand over open links whose summed
    # efficiency overflows would split as inf * 0, so it raises
    # InvalidModelValue naming the link instead.
    k, links, efficiency = net.k, net.links, net.efficiency
    tail = net.has_flat_tail and rate >= scale * net.breakpoints[-1]
    if tail:
        # The zero-slope last link takes all further demand at its intercept.
        j, top, past, share = k - 1, links[-1].intercept, 0.0, False
    else:
        j = min(_segment_index(net.breakpoints, rate, scale), k)
        eff_j = scale * net.eff_prefix[j - 1]
        if eff_j == INF and rate > 0.0:
            i = net.eff_prefix.index(INF)
            raise InvalidModelValue(
                f"link {i} (slope {net.links[i].slope!r}) takes the summed efficiency 1/a of "
                f"links 0..{i} past the float range, so a split that opens it cannot be computed"
            )
        top = links[j - 1].intercept
        demand = rate - scale * net.breakpoints[j - 1]
        past = demand / eff_j
        # A subnormal or overflowed past loses the demand that the flows
        # need not lose: then each link takes its share e_i / E_j of it.
        share = demand != 0.0 and not _LEAST_NORMAL <= past < INF
    # The level is top + past, and level - b_i the intercept gap plus the
    # demand past the last breakpoint: subtracting b_i from a level that
    # rounds near it would cancel, and a large efficiency multiplies the
    # rounding error.
    flows = [0.0] * k
    for i in range(j):
        e, gap = scale * efficiency[i], top - links[i].intercept
        flows[i] = e * gap + e / eff_j * demand if share else max(0.0, e * (gap + past))
    if tail:
        flows[-1] = rate - math.fsum(flows)
    return flows, top + past


def _finite_cost(cost: float, rate: float) -> float:
    # At demand 0 nothing flows and nothing costs, though a cost can read
    # inf * 0 there.  Elsewhere a cost past the float range, or one that
    # reads NaN through an overflowed term, is no cost.
    if math.isfinite(cost):
        return cost
    if rate == 0.0:
        return 0.0
    raise CostOverflow(f"the cost overflows at demand {rate!r}: {cost!r}")


def _profile(net: ParallelNetwork, rate: float, scale: float) -> tuple[FlowProfile, float]:
    # The split at `scale` as a checked profile, with its level: the flows
    # without the cost, which can overflow where the flows do not.
    check_rate(rate)
    flows, level = _split(net, rate, scale)
    return FlowProfile(rate=rate, flows=tuple(flows)), level


def nash_flow(net: ParallelNetwork, rate: float) -> EquilibriumResult:
    """Selfish flow: used links share one latency level.

    With j links open, the level is the intercept of link j-1 plus the
    demand past its breakpoint over eff_prefix_j, and link i carries eff_i
    times the level less its own intercept; where that quotient leaves the
    normal range, link i carries eff_i times the intercept gap plus its
    share eff_i / eff_prefix_j of the demand.  A zero-slope final link pins
    the level at its intercept once demand reaches the last breakpoint.
    Every user pays the level, so the cost is rate * level; one that does
    not come out finite raises CostOverflow.
    """
    profile, level = _profile(net, rate, 1.0)
    rate = profile.rate  # -0.0 reads as 0.0
    return EquilibriumResult(profile, level=level, cost=_finite_cost(rate * level, rate))


def opt_flow(net: ParallelNetwork, rate: float) -> EquilibriumResult:
    """System-optimal flow: used links share one marginal cost.

    A link's marginal cost at flow x, 2*slope*x + intercept, is its latency
    at 2x, that is the latency of a link with half its efficiency 1/slope at
    x.  So the optimal flow is the selfish split with every efficiency
    halved, and the reported level, the equalized marginal cost M, is that
    split's level.  Link h therefore opens at half its selfish breakpoint.
    Each used link's latency is (M + intercept_i) / 2, so the cost is
    (rate * M + sum x_i * intercept_i) / 2 over the reported flows, a sum of
    non-negative terms; one that does not come out finite raises
    CostOverflow.
    """
    profile, level = _profile(net, rate, 0.5)
    cost = _cost_sum([rate * level, *(x * b for x, b in zip(profile.flows, net.intercepts))]) / 2.0
    return EquilibriumResult(profile, level=level, cost=_finite_cost(cost, rate))


def cost_increment(net: ParallelNetwork, s: float, r: float, j: int,
                   which: str = "nash") -> float:
    """Exact cost growth of a flow that keeps using j links from rate s to r.

    Reads the anchored piece C + C' u + u^2 / E_j of the selfish or optimal
    cost that :func:`~anarchy.analysis.cost_pieces` reads (1/E = 0 on a
    zero-slope tail): with d = r - s it is d * (C'(s) + d / E_j).  Both rates
    must sit in that piece; an increment that is not finite raises CostOverflow.
    """
    check_rate(s)
    check_rate(r)
    if which not in ("nash", "opt"):
        raise SchemaError(f"which must be 'nash' or 'opt', got {which!r}")
    if s > r:
        raise SegmentMismatch(f"start rate {s} exceeds end rate {r}")
    # islice counts only in integers.
    if not (hasattr(j, "__index__") and 1 <= j <= net.k):
        raise SegmentMismatch(f"link count {j} is not an integer in 1..{net.k}")
    seg = next(islice(_cost_segs(net, 1.0 if which == "nash" else 0.5), j - 1, None))
    lo, hi = seg.anchor, seg.hi
    # A piece end sums at most k non-negative rounded terms.
    eps = net.k * _allowance(hi if math.isfinite(hi) else lo)
    if s < lo - eps or r > hi + eps:
        raise SegmentMismatch(
            f"rates [{s}, {r}] leave the {which} segment [{lo}, {hi}] for {j} links"
        )
    _, slope, curvature = seg.at(s)
    d = r - s
    return _finite_cost(d * (slope + d * curvature), r)


def _two_least(values: Sequence[float]) -> tuple[int, int | None]:
    # Indices of the least value and of the least among the others; of
    # equal values the first wins, as with min.
    first = second = None
    for g, v in enumerate(values):
        if first is None:
            first, least = g, v
        elif v < least:
            first, second, least, runner = g, first, v, least
        elif second is None or v < runner:
            second, runner = g, v
    return first, second


def is_user_equilibrium(lats: Sequence[PiecewiseLatency], profile: FlowProfile) -> EquilibriumCheck:
    """Check that no used link envies another.

    For every link i with positive flow and every other link g, the latency
    on i must not exceed the latency g would show just above its current
    flow.  Each latency sums slope*x and an offset that can be negative, so
    where those cancel it is known only to the rounding of its terms, not
    of itself: each side may move by _ROUNDING times the size of the terms
    it sums (:meth:`~anarchy.model.PiecewiseLatency.limits`), plus one
    subnormal, since below the normal range rounding is absolute.  Link i
    gets the allowance of the segment its value reads, link g that of the
    segment its right limit reads, so a link with large terms widens no
    other link's comparison; no slack is fixed beyond that.  Comparing with
    the smallest widened right limit, or the second smallest when i itself
    holds it, covers every pair in O(k).  A failure reports link i and the
    link it envies most, with the plain value and right limit.  Unequal
    counts of latencies and flows raise InvalidModelValue.
    """
    flows = profile.flows
    if len(lats) != len(flows):
        raise InvalidModelValue(f"latency count {len(lats)} differs from flow count {len(flows)}")
    used, edges = [], []
    for i, f in enumerate(flows):
        v, v_terms, e, e_terms = lats[i].limits(f)
        edges.append(e + _allowance(e_terms))
        if f > 0.0:
            used.append((i, v - _allowance(v_terms)))
    first, second = _two_least(edges)
    for i, low in used:
        g = second if i == first else first
        if g is not None and not low <= edges[g]:
            return EquilibriumCheck(False, violator=(i, g), lhs=lats[i].value(flows[i]),
                                    rhs=lats[g].right_liminf(flows[g]))
    return EquilibriumCheck(True)


def _flow_bounds(lat, corner: float, past: float = 0.0,
                 demand: float = 0.0, a2: float = 0.0) -> tuple[float, float]:
    """Least and greatest flow a link can carry in an equilibrium at a level.

    The level is ``corner + past``: a corner level plus, when the level lies
    strictly between two corners, the part above the lower one.  The
    greatest flow is the most flow whose latency stays <= level.  The least
    is sup{x : right_liminf(x) < level}: below it the link still shows a
    latency under the level just above its flow, so users elsewhere would
    move here.  Both come from comparing the level with segment corner
    levels, so a flow at a segment end comes out as that end, never as a
    recomputed neighbour.  On a rising segment the flow is
    lo + ((corner - v_lo) + past) / slope, which keeps the rounding of the
    level itself out of it.  A positive ``demand`` is the flow past the
    corner whose rise ``past`` = demand * a2 left the normal range: the level
    then lies above the corner, and a rising link takes its share
    (a2 / slope) * demand on top of its corner flow.
    """
    level = corner + past
    least = most = 0.0
    for lo, hi, m, v_lo, v_hi in lat.segments:
        if level < v_lo:
            break
        if level >= v_hi:
            x = hi
        elif demand:
            x = min(hi, lo + (corner - v_lo) / m + a2 / m * demand)
        else:
            x = min(hi, lo + ((corner - v_lo) + past) / m)
        most = x
        if level > v_lo or demand:
            least = x
    return least, most


def _rising(lats: Sequence[PiecewiseLatency], level: float) -> list[tuple[float, int]]:
    # (slope, link) of every segment rising at `level`; the supply's slope
    # there is the sum of their 1/slope.
    return [(m, i) for i, lat in enumerate(lats)
            for _, _, m, v_lo, v_hi in lat.segments if m > 0.0 and v_lo <= level < v_hi]


def water_fill(lats: Sequence, rate: float, *,
               latency_family: str = "original") -> EquilibriumResult:
    """Equilibrium of piecewise latencies by filling links up to a common level.

    The supply S(L), the most flow all links take at latency <= L, is
    piecewise linear and non-decreasing in L, with jumps only at flat
    segments.  The least L with S(L) >= rate is a lookup on the pieces of
    the kept supply-event sweep, the one :func:`worst_equilibrium_cost`
    reads: a bisection over the piece ends, then the piece's corner level
    at its anchor plus (rate - anchor) / (the supply's slope, the sum of
    1/slope over the links rising at that corner), or the corner at its end
    once that is reached; on a jump the level is the jump's.  The
    first call on new latencies costs one sweep, O(n log n) in their n
    segments.  Per-link flow intervals at L follow from comparing L with
    segment corner levels; on rising segments the flow past the last corner
    is the rest of the rate shared in proportion to 1/slope, the difference
    form :func:`nash_flow` uses, so the rounding of L stays out of the flows;
    where that rest's rise of L leaves the normal range, each rising link
    takes its share of the rest itself, and a summed 1/slope past the float
    range raises InvalidModelValue naming a rising link and its slope.
    The canonical profile spreads the rate across the intervals
    proportionally to their widths and is verified to be an equilibrium;
    a profile that fails raises CertificateFailed.
    A rate above the sweep's end, the sum of the caps when every link is
    capped, raises InfeasibleRate; an empty latency list raises EmptyNetwork,
    and an entry that is not a PiecewiseLatency SchemaError naming its index;
    a level or cost past the float range raises CostOverflow.
    """
    lats = tuple(lats)
    seg = _piece_at(lats, rate)
    corner, demand, a2 = seg.low, rate - seg.anchor, seg.a2
    if corner < seg.top and demand > 0.0:
        # The supply's slope past the corner, summed afresh over the links
        # rising there: the sweep's running sum of 1/slope can be a few ulps off.
        rising = _rising(lats, corner)
        a2 = 1.0 / _cost_sum(1.0 / m for m, _ in rising)
    past = demand * a2
    # The demand is kept only where its rise of the level, past, loses it:
    # a positive demand whose past is 0 or subnormal.
    if corner + past >= seg.top:
        corner, past, demand = seg.top, 0.0, 0.0
    elif past >= _LEAST_NORMAL or not demand > 0.0:
        demand = 0.0
    elif not a2 > 0.0:
        # The rising links' summed 1/slope overflowed, so each share reads
        # 0; name the rising link with the least slope.
        m, i = min(rising)
        raise InvalidModelValue(
            f"link {i} (slope {m!r}) takes the summed supply slope 1/slope of the links "
            f"rising at level {corner!r} past the float range, so their flows cannot be computed"
        )
    level = corner + past
    if not level < INF:
        raise CostOverflow(f"the water-fill level overflows at demand {rate!r}")
    intervals = []
    for lat in lats:
        least, most = _flow_bounds(lat, corner, past, demand, a2)
        hi_f = min(most, rate)
        intervals.append((min(least, hi_f), hi_f))
    total_lo = math.fsum(lo for lo, _ in intervals)
    try:
        room, spread = rate - total_lo, math.fsum(hi for _, hi in intervals) - total_lo
    except OverflowError:
        # The greatest flows sum past the float range; each is at most the
        # rate, so at 1/n of the scale they do not, and the share is the same.
        n = len(intervals)
        room = (rate - total_lo) / n
        spread = math.fsum(hi / n for _, hi in intervals) - total_lo / n
    t = 0.0 if spread <= 0.0 else min(1.0, max(0.0, room / spread))
    flows = tuple(min(hi, lo + t * (hi - lo)) for lo, hi in intervals)

    profile = FlowProfile(rate=rate, flows=flows, latency_family=latency_family)
    check = is_user_equilibrium(lats, profile)
    if not check:
        raise CertificateFailed(
            f"water-fill produced a non-equilibrium profile: {check.violator} "
            f"lhs={check.lhs} rhs={check.rhs}"
        )
    return EquilibriumResult(
        profile,
        level=level,
        cost=_finite_cost(profile_cost(lats, flows), rate),
        per_link_interval=tuple(intervals),
    )


class _Seg(NamedTuple):
    # One closed form of one cost: a0 + a1*(r - anchor) + a2*(r - anchor)^2
    # up to demand hi, which it holds when closed.  The segment starts where
    # the one before it ends.  A piece of the equilibrium sweep also carries
    # the water-fill level: low at the anchor, rising by a2*(r - anchor) up
    # to top.
    hi: float
    closed: bool
    tag: str
    anchor: float
    a0: float
    a1: float
    a2: float
    low: float = 0.0
    top: float = 0.0

    def at(self, lo: float) -> tuple[float, float, float]:
        # The same quadratic in u = r - lo.  Every cost rises with r, so a1
        # and a2 are >= 0 and the slope terms add without cancellation.
        s = lo - self.anchor
        return self.a0 + s * (self.a1 + s * self.a2), self.a1 + 2.0 * s * self.a2, self.a2


def _cost_segs(net: ParallelNetwork, scale: float) -> Iterator[_Seg]:
    # The selfish (scale 1) or optimal (scale 1/2) cost while j links are
    # used, from scale * breakpoints[j-1] on: C + C' u + u^2 / E_j, anchored
    # there.  C' is the intercept of the link that opens at the anchor, the
    # marginal cost there; the selfish cost r * L adds r / E_j to it.  C
    # carries from piece to piece, adding only non-negative terms.  A
    # zero-slope tail has 1 / E = 0; a piece past an overflowed summed
    # efficiency carries NaN, which reads as no cost.
    k, flat, selfish = net.k, net.has_flat_tail, scale == 1.0
    eff_prefix, breakpoints = net.eff_prefix, net.breakpoints
    name, cost = "nash" if selfish else "opt", 0.0
    for j, link in enumerate(net.links, 1):
        e = eff_prefix[j - 1]
        inv = 1.0 / e if e < INF or link.slope == 0.0 else math.nan
        lo = scale * breakpoints[j - 1]
        hi = scale * breakpoints[j] if j < k else INF
        slope = link.intercept + (lo * inv if selfish else 0.0)
        yield _Seg(hi, not (flat and j == k - 1), f"{name}{j}", lo, cost, slope, inv)
        w = hi - lo
        cost += w * (slope + w * inv)


def _supply_events(lat: PiecewiseLatency) -> Iterator[tuple[float, float, float, float, float]]:
    # The corner levels of `lat` as (level, jump, rate change, held flow,
    # held cost), read off its corner table.  The supply, the most flow
    # taken at latency <= L, rises at 1/slope on a rising segment and jumps
    # by a flat segment's width.  Past a segment's end the link holds that
    # flow at that end's latency until its next segment starts, if that
    # start lies higher or there is none.
    segments, release = lat.segments, (0.0, 0.0)
    for (lo, hi, m, v_lo, v_hi), nxt in zip(segments, segments[1:] + (None,)):
        rate = 1.0 / m if m > 0.0 else 0.0
        yield (v_lo, 0.0 if rate else hi - lo, rate, *release)
        if hi < INF:
            held = (hi, hi * v_hi) if nxt is None or nxt[3] > v_hi else (0.0, 0.0)
            yield (v_hi, 0.0, -rate, *held)
            release = (-held[0], -held[1])


def _equilibrium_segs(lats: Sequence[PiecewiseLatency]) -> Iterator[_Seg]:
    # The costliest equilibrium, swept once over the water-fill level L.
    # Links past a segment's end hold flow D at cost C and every other used
    # link pays L, so the cost C + L*(r - D) is quadratic in r while L rises
    # and linear across a flat segment's jump; there the flat links are no
    # longer held, but links that rise past a jump at L still are.  Where the
    # cost can jump the demand is read off the least flows, and while no link
    # rises it is the flow held, D.  The piece in progress (at first an empty
    # one at 0) is kept as all but its end and built when the next starts, at
    # the demand reached then.  Each level's events[i:j] are read twice: for
    # the flats' widths and releases, and whether any link releases a held
    # flow, before the pieces that end there; then, in event order, for the
    # sums and link counts, which snap to 0 once their counts do.  A last
    # level at inf ends the last rising piece, or, when every link is capped,
    # ends the sweep at the sum of their caps.
    events = sorted(ev for lat in lats for ev in _supply_events(lat)) + [(INF, 0.0, 0.0, 0.0, 0.0)]
    r = prev = growth = held = cost = 0.0
    rising = n_held = 0
    piece = (True, "", 0.0, 0.0, 0.0, 0.0, events[0][0], events[0][0])
    i, n = 0, len(events)
    while i < n:
        level = events[i][0]
        width = freed = freed_cost = 0.0
        release = False
        j = i
        while j < n and events[j][0] == level:
            _, w, _, dheld, dcost = events[j]
            if w > 0.0:
                width, freed, freed_cost = width + w, freed + dheld, freed_cost + dcost
            release |= dheld < 0.0
            j += 1
        if width > 0.0 or release:
            end = math.fsum([_flow_bounds(lat, level)[0] for lat in lats])
        elif rising:
            end = r + growth * (level - prev)
        elif level < INF:
            end = held
        else:
            end = math.fsum([lat.cap for lat in lats])
        if rising:
            yield _Seg(r, *piece)
            piece = (True, "", r, cost + prev * (r - held), prev + (r - held) / growth,
                     1.0 / growth, prev, level)
        r = end
        if width > 0.0:
            d, c = held + freed, cost + freed_cost
            yield _Seg(r, *piece)
            piece = (r + width < INF, "", r, c + level * (r - d), level, 0.0, level, level)
            r += width
            if r == INF:
                break
        for m in range(i, j):
            _, _, dgrowth, dheld, dcost = events[m]
            rising += (dgrowth > 0.0) - (dgrowth < 0.0)
            n_held += (dheld > 0.0) - (dheld < 0.0)
            growth, held, cost = growth + dgrowth, held + dheld, cost + dcost
        if not rising:
            growth = 0.0
        elif growth != growth:
            # An overflowed 1/slope entered and left the running sum.
            raise InvalidModelValue(f"a link whose 1/slope passes the float range stops rising "
                                    f"by level {level}, so the running supply slope reads {growth}")
        elif not growth > 0.0:
            # The running sum cancelled while links still rise: sum it afresh.
            growth = _cost_sum(1.0 / m for m, _ in _rising(lats, level))
        if not n_held:
            held = cost = 0.0
        prev, i = level, j
    yield _Seg(r, *piece)


# The last key and result of each kept build, by name; an entry is replaced
# whole, so a thread that races another at worst builds again.
_kept: dict[str, tuple] = {}


def _keep(name: str, key: tuple, build: Callable[[], tuple]) -> tuple:
    """The result of ``build()``, kept under `name` for one key at a time.

    Keys match when they hold the same objects in the same order.  Those are
    frozen, so the same objects carry the same values, and the kept key holds
    them, so their ids cannot be reused while it is kept.
    """
    kept = _kept.get(name)
    if kept is None or len(kept[0]) != len(key) or not all(map(is_, kept[0], key)):
        kept = _kept[name] = (key, build())
    return kept[1]


def _swept(lats: Sequence[PiecewiseLatency]) -> tuple[tuple[_Seg, ...], tuple[float, ...]]:
    """The sweep of `lats` without its empty pieces, and the piece ends.

    :func:`water_fill` and :func:`worst_equilibrium_cost` look rates up in
    it.  Kept for the last latencies, keyed on each of them.  An entry that
    is not a PiecewiseLatency raises SchemaError naming its index.
    """
    key = tuple(lats)

    def build() -> tuple:
        for i, lat in enumerate(key):
            if not isinstance(lat, PiecewiseLatency):
                raise SchemaError(f"latency {i} is not a PiecewiseLatency: {type(lat).__name__}")
        segs: list[_Seg] = []
        for seg in _equilibrium_segs(key):
            if not segs or seg.hi > segs[-1].hi:
                segs.append(seg)
        return tuple(segs), tuple(seg.hi for seg in segs)

    return _keep("sweep", key, build)


def _piece_at(lats: Sequence[PiecewiseLatency], rate: float) -> _Seg:
    # The piece of the kept sweep that holds `rate`, by bisection over the
    # piece ends; the one gate of both readers: a bad rate, an empty list,
    # then a rate past the sweep's end (InfeasibleRate) raise, in that order.
    check_rate(rate)
    lats = tuple(lats)
    if not lats:
        raise EmptyNetwork("water-filling needs at least one link")
    segs, his = _swept(lats)
    if rate > his[-1]:
        raise InfeasibleRate(f"total capacity {his[-1]} below rate {rate}")
    return segs[bisect_left(his, rate)]


def worst_equilibrium_cost(lats: Sequence[PiecewiseLatency], rate: float) -> float:
    """Cost of the most expensive equilibrium split of `rate` over any number of links.

    A lookup on the pieces of the supply-event sweep: one bisection over the
    piece ends, O(log n) in the n segments of the latencies, then Horner
    evaluation of that piece's quadratic.  Every finite piece holds its end.
    The sweep is kept for the last latencies seen, keyed on the identity of
    each latency object, so further rates on them cost no new sweep, while
    new or replaced latencies, even equal ones, are swept anew.  A rate
    above the sum of the caps, when every link is capped, raises
    InfeasibleRate and an empty list EmptyNetwork, as in :func:`water_fill`;
    a cost past the float range raises CostOverflow.
    """
    return _finite_cost(_piece_at(lats, rate).at(rate)[0], rate)


worst_equilibrium_cost_two_links = worst_equilibrium_cost
