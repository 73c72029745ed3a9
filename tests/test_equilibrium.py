import math
import random
import re
import sys
from bisect import bisect_left

import numpy as np
import pytest

from anarchy import (
    AffineLatency,
    CertificateFailed,
    CostOverflow,
    EmptyNetwork,
    FlowProfile,
    InfeasibleRate,
    InvalidModelValue,
    NegativeRate,
    PiecewiseLatency,
    SchemaError,
    SegmentMismatch,
    build_plateau_mechanism,
    build_threshold_mechanism,
    continuity_no_improvement_check,
    cost_increment,
    curve_breakpoints,
    is_user_equilibrium,
    mechanism_from_dict,
    nash_flow,
    network_from_dict,
    normalize_network,
    opt_flow,
    profile_cost,
    ratio_curve,
    ratio_sup,
    solve_plateau_params,
    water_fill,
    worst_equilibrium_cost,
)
import anarchy.analysis
import anarchy.equilibrium
from anarchy.equilibrium import (EquilibriumCheck, _equilibrium_segs, _flow_bounds, _supply_events,
                                  _two_least)
from anarchy.mechanisms import MIN_PLATEAU_RATIO
from conftest import (CANCELLING_OPT, CLIPPED_TAIL, NEGATIVE_OPT, OVERFLOWED_OFFSET,
                      OVERFLOWING_TAIL, SUBNORMAL_OFFSET, TINY_SLOPES, random_network)

# Two-link plateau instance whose water-fill once collapsed the first link's
# interval: hold_end recomputed from the level came out one ulp off.
PLATEAU_CRASH = {"links": [{"a": 3.0707272758427404, "b": 0},
                           {"a": 1.2323489005020785, "b": 0.40375230188526406}]}
PLATEAU_CRASH_RATE = 0.2973144532611471


def as_pieces(net):
    return [PiecewiseLatency.from_affine(link) for link in net.links]


# ---------------------------------------------------------------- closed forms


def test_nash_two_links_at_breakpoint():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}])
    res = nash_flow(net, 1.0)
    assert res.profile.flows == (1.0, 0.0)
    assert res.cost == pytest.approx(1.0)
    assert res.level == pytest.approx(1.0)
    assert res.used_count == 1
    # the two-link formula gives the same point, so the tie is harmless
    past = nash_flow(net, 1.0 + 1e-9)
    assert past.profile.flows[0] == pytest.approx(1.0, abs=1e-8)


def test_opt_two_links():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}])
    res = opt_flow(net, 1.0)
    assert res.profile.flows == pytest.approx((0.75, 0.25))
    assert res.cost == pytest.approx(7.0 / 8.0)
    # level is the marginal cost 2*a*f + b on used links
    assert res.level == pytest.approx(2 * 0.75)
    assert res.level == pytest.approx(2 * 0.25 + 1)


def test_pigou_costs(pigou):
    assert nash_flow(pigou, 1.0).cost == pytest.approx(1.0)
    assert opt_flow(pigou, 1.0).cost == pytest.approx(0.75)
    # flat tail: selfish keeps everything on the first link until r = 1
    res = nash_flow(pigou, 2.0)
    assert res.profile.flows == (1.0, 1.0)
    assert res.level == 1.0
    # optimum spills over at r = 1/2 already
    res = opt_flow(pigou, 0.75)
    assert res.profile.flows == pytest.approx((0.5, 0.25))
    assert res.cost == pytest.approx(0.5)


def test_negative_rate_rejected(pigou):
    with pytest.raises(NegativeRate):
        nash_flow(pigou, -0.1)
    with pytest.raises(NegativeRate):
        opt_flow(pigou, -0.1)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_non_finite_rate_rejected(pigou, rate):
    for solve in (nash_flow, opt_flow):
        with pytest.raises(NegativeRate, match="finite"):
            solve(pigou, rate)
    with pytest.raises(NegativeRate, match="finite"):
        water_fill(as_pieces(pigou), rate)


def test_large_efficiency_keeps_flows_summing_to_rate():
    # level - intercept cancels here: one ulp of the level is 1e-8 of flow.
    net = normalize_network([{"a": 1e-8, "b": 0.5}])
    rate = 1.4837132766842842e-07
    assert nash_flow(net, rate).profile.flows == pytest.approx((rate,), rel=1e-12)
    assert opt_flow(net, rate).profile.flows == pytest.approx((rate,), rel=1e-12)
    assert water_fill(as_pieces(net), rate).profile.flows == pytest.approx((rate,), rel=1e-12)


@pytest.mark.parametrize("gaps", [(0.0, 1e-12), (0.0, 1e-12, 2e-12)])
@pytest.mark.parametrize("rate", [1e-3, 1.0])
def test_water_fill_large_efficiencies_on_several_links(gaps, rate):
    # Each flow used to be recomputed from the rounded level, where one ulp
    # is 1e-8 of flow; the flows then missed the rate by more than 1e-9.
    net = normalize_network([{"a": 1e-8, "b": 0.5 + g} for g in gaps])
    res = water_fill(as_pieces(net), rate)
    assert math.fsum(res.profile.flows) == pytest.approx(rate, rel=1e-12)
    assert res.profile.flows == pytest.approx(nash_flow(net, rate).profile.flows, rel=1e-9)
    assert res.cost == pytest.approx(nash_flow(net, rate).cost, rel=1e-12)


def test_zero_rate(pigou):
    res = nash_flow(pigou, 0.0)
    assert res.cost == 0.0
    assert res.used_count == 0


def test_negative_zero_rate_reads_as_zero(pigou):
    # Each solver reports a demand of -0.0 as 0.0, in its rate and its cost.
    for res in (nash_flow(pigou, -0.0), opt_flow(pigou, -0.0),
                water_fill(as_pieces(pigou), -0.0)):
        assert math.copysign(1.0, res.profile.rate) == math.copysign(1.0, res.cost) == 1.0


# ------------------------------------------------------------------ increments


def test_nash_increment_matches_direct():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}])
    inc = cost_increment(net, 1.0, 2.0, 2, which="nash")
    assert inc == pytest.approx(2.0)
    assert nash_flow(net, 1.0).cost + inc == pytest.approx(nash_flow(net, 2.0).cost)


def test_opt_increment_matches_direct():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}])
    inc = cost_increment(net, 0.5, 1.5, 2, which="opt")
    assert opt_flow(net, 0.5).cost + inc == pytest.approx(opt_flow(net, 1.5).cost)


def test_increment_rejects_wrong_segment():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}])
    with pytest.raises(SegmentMismatch):
        cost_increment(net, 0.2, 0.8, 2, which="nash")  # two links open only past 1
    with pytest.raises(SegmentMismatch):
        cost_increment(net, 2.0, 1.0, 1)
    with pytest.raises(SegmentMismatch):
        cost_increment(net, 0.0, 0.5, 5)
    with pytest.raises(SchemaError):
        cost_increment(net, 0.0, 0.5, 1, which="something")


def test_flat_tail_increment(pigou):
    inc = cost_increment(pigou, 1.5, 4.0, 2, which="nash")
    assert inc == pytest.approx(2.5)  # linear growth at the final intercept


@pytest.mark.parametrize("s, r, which", [(1.0, 1e200, "nash"), (0.5, 1e200, "opt")])
def test_increment_near_the_float_range_is_exact(s, r, which):
    # (r - s)^2 overflows, but the increment, the cost at r less a cost
    # near 1e-300, does not.
    assert cost_increment(normalize_network(TINY_SLOPES), s, r, 2, which=which) == 5e+99


def test_increment_past_an_overflowed_efficiency_raises():
    # 1/a of the second link overflows, so its piece reads NaN.
    net = normalize_network([{"a": 1, "b": 0}, {"a": 3e-315, "b": 1}])
    with pytest.raises(CostOverflow, match=re.escape("demand 2.0: nan")):
        cost_increment(net, 1.0, 2.0, 2)


@pytest.mark.parametrize("which", ["nash", "opt"])
def test_increment_at_demand_zero_past_an_overflowed_efficiency(which):
    # 1/5e-324 overflows, so the piece's slope reads NaN; at demand 0
    # nothing flows and the increment is 0.
    net = normalize_network([{"a": 5e-324, "b": 0}])
    assert cost_increment(net, 0.0, 0.0, 1, which=which) == 0.0


# ----------------------------------------------------------- brute-force oracle


def brute_force_opt_cost(net, rate, points=2001):
    """Grid minimum of the total cost over the flow simplex (k = 2 or 3)."""
    a = np.array(net.slopes)
    b = np.array(net.intercepts)
    if net.k == 1:
        return rate * (a[0] * rate + b[0])
    if net.k == 2:
        f1 = np.linspace(0.0, rate, points)
        f2 = rate - f1
        cost = f1 * (a[0] * f1 + b[0]) + f2 * (a[1] * f2 + b[1])
        return float(cost.min())
    assert net.k == 3
    best = math.inf
    n = 201
    for x in np.linspace(0.0, rate, n):
        f2 = np.linspace(0.0, rate - x, n)
        f3 = rate - x - f2
        cost = x * (a[0] * x + b[0]) + f2 * (a[1] * f2 + b[1]) + f3 * (a[2] * f3 + b[2])
        best = min(best, float(cost.min()))
    return best


def project_simplex(v, total):
    u = sorted(v, reverse=True)
    theta = 0.0
    csum = 0.0
    for i, ui in enumerate(u):
        csum += ui
        t = (csum - total) / (i + 1)
        if ui - t > 0.0:
            theta = t
    return [max(0.0, vi - theta) for vi in v]


def gradient_descent_opt(net, rate, iters=20000):
    """Projected gradient on the quadratic cost; independent of the closed form."""
    a = net.slopes
    b = net.intercepts
    f = [rate / net.k] * net.k
    step = 1.0 / (2.0 * max(a) + 1e-12)
    for _ in range(iters):
        grad = [2.0 * a[i] * f[i] + b[i] for i in range(net.k)]
        f = project_simplex([f[i] - step * grad[i] for i in range(net.k)], rate)
    return math.fsum(f[i] * (a[i] * f[i] + b[i]) for i in range(net.k))


@pytest.mark.parametrize(
    "links,rate",
    [
        ([{"a": 1, "b": 0}, {"a": 1, "b": 1}], 1.0),
        ([{"a": 1, "b": 0}, {"a": 1, "b": 1}], 0.3),
        ([{"a": 2, "b": 0.5}, {"a": 0.25, "b": 1.0}], 2.2),
        ([{"a": 1, "b": 0}, {"a": 0.5, "b": 1}, {"a": 0.2, "b": 2}], 3.1),
    ],
)
def test_opt_beats_grid_oracle(links, rate):
    net = normalize_network(links)
    cost = opt_flow(net, rate).cost
    grid = brute_force_opt_cost(net, rate)
    assert cost <= grid + 1e-6
    assert cost == pytest.approx(grid, abs=1e-4)


def test_opt_matches_gradient_oracle():
    rng = random.Random(4242)
    for _ in range(10):
        net = random_network(rng, kmax=4)
        rate = rng.uniform(0.1, 3.0 * (net.breakpoints[-1] + 1.0))
        cost = opt_flow(net, rate).cost
        pgd = gradient_descent_opt(net, rate)
        assert cost <= pgd + 1e-7
        assert cost == pytest.approx(pgd, rel=1e-6, abs=1e-6)


def test_nash_level_is_stationary():
    # every used link sits exactly at the level; unused links cost more to enter
    rng = random.Random(99)
    for _ in range(25):
        net = random_network(rng, kmax=6, allow_flat=True)
        rate = rng.uniform(0.0, 2.5 * (net.breakpoints[-1] + 1.0))
        res = nash_flow(net, rate)
        for i, f in enumerate(res.profile.flows):
            v = net.links[i].value(f)
            if f > 0.0:
                assert v == pytest.approx(res.level, rel=1e-9, abs=1e-9)
            else:
                assert v >= res.level - 1e-9 * max(1.0, res.level)


# ------------------------------------------------------------------ water fill


def reference_level(lats, rate):
    """Least latency level at which the links together absorb `rate`.

    An independent walk over the sorted corner levels, carrying the supply
    and its slope; it stops at the last corner `prev` not past the answer
    and recomputes the supply there exactly.  If that covers the rate (the
    rate falls in a jump at `prev`, or on it) the level is `prev`.
    Otherwise the rest of the rate spreads over the rising segments: the
    level is `prev` plus (rate - S(prev)) / sum(1/slope), or the next corner
    if that is reached first.  Returns the level as (corner, part above the
    corner), the form `_flow_bounds` takes.
    """
    events = sorted(ev for lat in lats for ev in _supply_events(lat))
    prev = min(lat.value(0.0) for lat in lats)
    stop = math.inf
    supplied = growth = 0.0
    for level, jump, dgrowth, _, _ in events:
        if level > prev:
            ahead = supplied + growth * (level - prev)
            if ahead >= rate:
                stop = level
                break
            supplied, prev = ahead, level
        supplied += jump
        growth += dgrowth
    have = math.fsum(_flow_bounds(lat, prev)[1] for lat in lats)
    if have >= rate:
        return prev, 0.0
    growth = math.fsum(
        1.0 / m
        for lat in lats
        for _, _, m, v_lo, v_hi in lat.segments
        if m > 0.0 and v_lo <= prev < v_hi
    )
    past = (rate - have) / growth if growth > 0.0 else math.inf
    if prev + past < stop:
        return prev, past
    if stop == math.inf:
        raise InfeasibleRate(f"no finite level absorbs rate {rate}")
    return stop, 0.0


def reference_fill(lats, rate):
    """Level, per-link intervals and flows of a water fill at the reference level.

    The intervals are `water_fill`'s, clipped to [0, rate]; the flows spread
    the rate across them in proportion to their widths, as it does.
    """
    corner, past = reference_level(lats, rate)
    intervals = []
    for lat in lats:
        least, most = _flow_bounds(lat, corner, past)
        hi = min(most, rate)
        intervals.append((min(least, hi), hi))
    low, high = math.fsum(lo for lo, _ in intervals), math.fsum(hi for _, hi in intervals)
    t = 0.0 if high <= low else min(1.0, max(0.0, (rate - low) / (high - low)))
    return corner + past, intervals, [min(hi, lo + t * (hi - lo)) for lo, hi in intervals]


def test_water_fill_matches_reference_level_walk():
    # Random capped, flat or jumping sets of up to 5 links, at uniform rates,
    # at 0, at every piece end of the sweep and one double either side.
    # Level and flows agree with the reference walk to the ulp, with two
    # exceptions.  One double above a piece end the sweep puts the split
    # past a jump, where the cost is the costliest equilibrium's.  At a
    # piece end, or one double below, the reference can round its supply
    # one double short and walk on to the top of a held stretch; the sweep
    # keeps the least level, with the same flows.
    rng = random.Random(15)
    compared = past_jump = 0
    for _ in range(250):
        lats = [_random_piecewise(rng) for _ in range(rng.randint(1, 5))]
        ends = [hi for hi in anarchy.equilibrium._swept(lats)[1] if 0.0 < hi < math.inf]
        capacity = math.fsum(lat.cap for lat in lats)
        top = min(capacity, 2.0 * max(ends, default=2.0))
        rates = [0.0] + [rng.uniform(0.0, top) for _ in range(5)]
        for e in ends:
            rates += [math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)]
        above = {math.nextafter(e, math.inf) for e in ends}
        for r in rates:
            if r > capacity:
                with pytest.raises(InfeasibleRate):
                    water_fill(lats, r)
                continue
            level, _, flows = reference_fill(lats, r)
            res = water_fill(lats, r)
            compared += 1
            if r in above and res.level != pytest.approx(level, rel=1e-12, abs=0.0):
                past_jump += 1
                assert res.cost == pytest.approx(worst_equilibrium_cost(lats, r), rel=1e-12), (lats, r)
                continue
            assert res.profile.flows == pytest.approx(flows, rel=1e-12, abs=1e-12 * r), (lats, r)
            if res.level != pytest.approx(level, rel=1e-12, abs=0.0):
                assert r in ends or math.nextafter(r, math.inf) in ends, (lats, r)
                assert res.level < level, (lats, r)
    assert compared >= 5000 and past_jump >= 1


def test_water_fill_matches_closed_form_seeded():
    rng = random.Random(2024)
    for _ in range(40):
        net = random_network(rng, kmax=6, allow_flat=True)
        for _ in range(5):
            rate = rng.uniform(0.0, 3.0 * (net.breakpoints[-1] + 1.0))
            wf = water_fill(as_pieces(net), rate)
            cf = nash_flow(net, rate)
            assert wf.cost == pytest.approx(cf.cost, rel=1e-9, abs=1e-9)
            for got, want in zip(wf.profile.flows, cf.profile.flows):
                assert got == pytest.approx(want, rel=1e-7, abs=1e-7)


def test_water_fill_pigou_interval(pigou):
    res = water_fill(as_pieces(pigou), 1.0)
    assert res.level == pytest.approx(1.0)
    # first link pinned at 1, the flat link may carry any surplus
    assert res.per_link_interval[0] == pytest.approx((1.0, 1.0))
    assert res.profile.flows == pytest.approx((1.0, 0.0))


def test_water_fill_respects_caps():
    capped = [
        PiecewiseLatency(starts=(0.0,), slopes=(1.0,), offsets=(0.0,), cap=0.5),
        PiecewiseLatency(starts=(0.0,), slopes=(0.0,), offsets=(1.0,)),
    ]
    res = water_fill(capped, 0.75)
    assert res.profile.flows == pytest.approx((0.5, 0.25))
    assert res.cost == pytest.approx(0.5)


def test_water_fill_infeasible():
    capped = [
        PiecewiseLatency(starts=(0.0,), slopes=(1.0,), offsets=(0.0,), cap=0.5),
        PiecewiseLatency(starts=(0.0,), slopes=(1.0,), offsets=(0.0,), cap=0.5),
    ]
    with pytest.raises(InfeasibleRate):
        water_fill(capped, 1.5)


def test_water_fill_empty_latency_list():
    # An empty iterator reads as the empty list it gives.
    for rate in (0.0, 1.0):
        for solve in (water_fill, worst_equilibrium_cost):
            for lats in ([], iter([])):
                with pytest.raises(EmptyNetwork):
                    solve(lats, rate)


def test_water_fill_plateau_interval_is_hold_window():
    net = network_from_dict(PLATEAU_CRASH)
    params, lats = mechanism_from_dict(net, {"kind": "plateau"})
    res = water_fill(lats, PLATEAU_CRASH_RATE)
    assert res.level == lats[0].value(params.hold_end)
    assert res.per_link_interval[0] == (params.hold_start, params.hold_end)
    assert params.hold_start < res.profile.flows[0] < params.hold_end


def test_water_fill_level_sits_on_jump_at_its_ends():
    # At the rates that open and close the plateau the level is the plateau
    # value itself, with the first link anywhere in the hold window.
    net = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
    params = solve_plateau_params(net)
    lats = build_plateau_mechanism(net, params)
    plateau = lats[0].value(params.hold_end)
    for rate in (params.jump_rate, params.resume_rate):
        res = water_fill(lats, rate)
        assert res.level == plateau
        assert res.per_link_interval[0] == (params.hold_start, params.hold_end)


def test_water_fill_corner_one_ulp_below_flat_piece():
    # The last segment starts one ulp below the flat level before it, within
    # the slack construction allows; the level sits on the flat piece and
    # the first link may carry any flow along it.
    first = PiecewiseLatency(
        starts=(0.0, 0.08849811770014272, 0.11823981888605739, 1.461358839272959),
        slopes=(1.140900138040887, 2.7773761638641377, 0.0, 2.6448766152839545),
        offsets=(0.6396249767052076, 0.49479992875843976, 0.8231963833521883,
                 -3.0419174371793645))
    second = PiecewiseLatency(starts=(0.0, 1.9580840144836837),
                              slopes=(1.387600902473139, 1.8589989803051394),
                              offsets=(0.7700585279007472, 0.26878294378768164),
                              cap=2.0049228283292684)
    flat = first.value(1.0)
    assert first.right_liminf(first.starts[3]) < flat
    rate = 1.4604877136574104
    res = water_fill([first, second], rate)
    assert res.level == flat
    assert res.per_link_interval[0] == (first.starts[2], rate)


def test_water_fill_fills_every_interval_to_its_top():
    # The rate fills every interval (t = 1); lo + t*(hi - lo) once landed one
    # double past the first link's cap, and the certificate failed.
    lats = [
        PiecewiseLatency((0.0, 1.2917717472900498), (1.556437715941987, 0.0),
                         (1.0886080747109295, 3.099170342581444), cap=3.58561298986845),
        PiecewiseLatency((0.0, 1.3910334189294287, 1.8224487753184087, 1.9144594426246102),
                         (2.2610646781230694, 0.0, 2.9738423472259434, 1.618569414131877),
                         (1.1339306578811648, 5.553791523497917, 0.13411617980597512,
                          2.728731243901463)),
        PiecewiseLatency((0.0, 2.0356751945440092), (2.299744762362983, 2.8984952699996924),
                         (0.8024403948520411, 0.15344525330720948)),
    ]
    res = water_fill(lats, 5.453467676250325)
    assert res.profile.flows[0] == lats[0].cap
    assert all(lo <= f <= hi for f, (lo, hi) in zip(res.profile.flows, res.per_link_interval))


# ----------------------------------------------------------- equilibrium check


# A latency may move by this many ulps of the size of the terms it sums.
ROUNDING = 4.0 * math.ulp(1.0)


def rounding_allowance(lat, x, right):
    """ROUNDING of slope*x + |offset| on the segment that the value (or, with
    `right`, the right limit) reads at x, plus one subnormal; below the
    normal range x counts as the least normal double."""
    k = sum(1 for start in lat.starts[1:] if (start <= x if right else start < x))
    size = lat.slopes[k] * max(x, sys.float_info.min) + abs(lat.offsets[k])
    return ROUNDING * size + math.ulp(0.0)


def pairwise_equilibrium(lats, flows):
    """Reference certificate: every used link against every other link,
    each side widened by its own rounding allowance."""
    used = [i for i, f in enumerate(flows) if f > 0.0]
    return all(
        lats[i].value(flows[i]) - rounding_allowance(lats[i], flows[i], False)
        <= lats[g].right_liminf(flows[g]) + rounding_allowance(lats[g], flows[g], True)
        for i in used for g in range(len(flows)) if g != i
    )


def envy_profiles(rng, count):
    # Two used links, the first at `level` nudged by -16..16 ulps or raised
    # by 1e-12 of it, the second at `level` exactly, possibly via an offset
    # of level/2; slopes are powers of two, so each value is exact.  Each
    # allowance is ROUNDING times about the level, so the two come to 8 to
    # 16 ulps of the level: 4 ulps either way is no envy and 1e-12 is, while
    # 16 ulps sits at the edge, where only the reference decides.
    for _ in range(count):
        level = rng.uniform(0.1, 5.0)
        s0, s1 = (2.0 ** rng.randint(-3, 3) for _ in range(2))
        b1 = rng.choice([0.0, level / 2.0])
        lats = [PiecewiseLatency.from_affine(AffineLatency(s0, 0.0)),
                PiecewiseLatency.from_affine(AffineLatency(s1, b1))]
        for shift, want in ((-16, None), (-4, True), (-1, True), (1, True), (4, True),
                            (16, None), (1e-12, False)):
            v = level
            if shift == 1e-12:
                v *= 1.0 + shift
            else:
                for _ in range(abs(shift)):
                    v = math.nextafter(v, math.copysign(math.inf, shift))
            yield lats, (v / s0, (level - b1) / s1), want


def test_is_user_equilibrium_matches_pairwise_reference():
    rng = random.Random(77)
    cases = []
    for _ in range(300):
        k = rng.randint(1, 6)
        rate = rng.uniform(0.1, 5.0)
        lats = []
        for _ in range(k):
            cap = rng.choice([math.inf, rng.uniform(0.0, rate)])
            lats.append(PiecewiseLatency.from_affine(
                AffineLatency(rng.choice([0.0, rng.uniform(0.1, 3.0)]), rng.uniform(0.0, 2.0)),
                cap=cap))
        if rng.random() < 0.5 and sum(l.cap for l in lats) >= rate:
            flows = water_fill(lats, rate).profile.flows
        else:
            cuts = sorted(rng.uniform(0.0, rate) for _ in range(k - 1))
            flows = [b - a for a, b in zip([0.0, *cuts], [*cuts, rate])]
            flows = [0.0 if rng.random() < 0.3 else f for f in flows]
        cases.append((lats, flows, None))
    cases += envy_profiles(rng, 100)
    for lats, flows, want in cases:
        profile = FlowProfile(rate=math.fsum(flows), flows=tuple(flows))
        check = is_user_equilibrium(lats, profile)
        assert bool(check) == pairwise_equilibrium(lats, profile.flows)
        assert want is None or bool(check) == want
        if not check:
            i, g = check.violator
            assert check.lhs == lats[i].value(profile.flows[i])
            assert check.rhs == lats[g].right_liminf(profile.flows[g])
            assert check.lhs > check.rhs


@pytest.mark.parametrize("level", [1e-300, 1.0, 1e300])
def test_certificate_refuses_envy_past_its_rounding(level):
    # Both links carry latency x at flow x; the first sits above the
    # second's right limit, the level.  Rounding puts the two a few ulps of
    # the level apart, so envy of 2 ulps passes, but envy of 1e-14 or 1e-12
    # of the level does not, whatever the level.
    line = PiecewiseLatency.from_affine(AffineLatency(1.0, 0.0))

    def certified(x):
        return bool(is_user_equilibrium([line, line], FlowProfile(x + level, (x, level))))

    assert not certified(level * (1.0 + 1e-12))
    assert not certified(level * (1.0 + 1e-14))
    x = level
    for _ in range(3):
        assert certified(x)
        x = math.nextafter(x, math.inf)


def test_is_user_equilibrium_flags_envy():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}])
    lats = as_pieces(net)
    good = nash_flow(net, 2.0).profile
    assert is_user_equilibrium(lats, good)
    bad = FlowProfile(rate=2.0, flows=(0.2, 1.8))
    check = is_user_equilibrium(lats, bad)
    assert not check
    assert check.violator == (1, 0)
    assert check.lhs == pytest.approx(2.8)
    assert check.rhs == pytest.approx(0.2)


@pytest.mark.parametrize("extra", [1, -1])
def test_latency_and_flow_counts_must_match(extra):
    # A third, free link would go uncompared; a missing one was an IndexError.
    x = PiecewiseLatency.from_affine(AffineLatency(1.0, 0.0))
    lats = [x, x, PiecewiseLatency.from_affine(AffineLatency(0.0, 0.0))][: 2 + extra]
    profile = FlowProfile(1.0, (0.5, 0.5))
    with pytest.raises(InvalidModelValue, match="latency count"):
        is_user_equilibrium(lats, profile)
    with pytest.raises(InvalidModelValue, match="latency count"):
        profile_cost(lats, profile.flows)


def test_two_least_matches_min_selection():
    # The least value's index and the least among the others, the first
    # index winning ties, as two min calls pick them; with infs and NaNs.
    rng = random.Random(78)
    pool = [0.0, 1.0, 1.0, 2.0, math.inf, math.inf, math.nan, -0.0]
    for _ in range(5000):
        values = [rng.choice(pool) if rng.random() < 0.7 else rng.uniform(0.0, 2.0)
                  for _ in range(rng.randint(1, 6))]
        first = min(range(len(values)), key=values.__getitem__)
        rest = [g for g in range(len(values)) if g != first]
        second = min(rest, key=values.__getitem__) if rest else None
        assert _two_least(values) == (first, second), values


def test_water_fill_raises_certificate_failed(monkeypatch):
    lats = [PiecewiseLatency.from_affine(AffineLatency(1.0, 0.0)),
            PiecewiseLatency.from_affine(AffineLatency(2.0, 0.5))]
    monkeypatch.setattr(anarchy.equilibrium, "is_user_equilibrium",
                        lambda lats, profile: EquilibriumCheck(False, (0, 1), 2.0, 1.0))
    with pytest.raises(CertificateFailed, match="non-equilibrium profile: \\(0, 1\\)"):
        water_fill(lats, 1.0)


@pytest.mark.parametrize("links, link, slope", [
    ([{"a": 3e-315, "b": 0}], 0, "3e-315"),
    ([{"a": 1, "b": 0}, {"a": 3e-315, "b": 1}], 1, "3e-315"),
    # Each efficiency is finite, their sum is not.
    ([{"a": 1e-308, "b": 0}, {"a": 1e-308, "b": 1}], 1, "1e-308"),
])
def test_split_past_an_overflowed_efficiency_raises(links, link, slope):
    # 1/a summed over the open links overflows, so the split would be
    # inf * 0; a demand that opens that link names it and its slope.
    net = normalize_network(links)
    rate = 1.5 * net.breakpoints[link] + 2.0
    for solve in (nash_flow, opt_flow):
        with pytest.raises(InvalidModelValue, match=f"link {link} \\(slope {slope}\\)") as caught:
            solve(net, rate)
        assert "flows sum to" not in str(caught.value)
        assert solve(net, 0.0).profile.flows == (0.0,) * net.k


@pytest.mark.parametrize("affine, rate, link, slope", [
    ([(5e-324, 7.735481218467218e+282)], 2.1933874496024237e+204, 0, "5e-324"),
    ([(1.0, 0.0), (3e-315, 1.0)], 3.0, 1, "3e-315"),
    # Each 1/slope is 1e308, their sum is not finite.
    ([(1e-308, 0.0), (1e-308, 0.0)], 1.0, 0, "1e-308"),
])
def test_water_fill_past_an_overflowed_supply_slope_raises(affine, rate, link, slope):
    # 1/slope overflows, so past the corner the level cannot rise and each
    # rising link's share reads 0; the rising link with the least slope is
    # named, not the flows' sum.
    lats = [PiecewiseLatency.from_affine(AffineLatency(a, b)) for a, b in affine]
    with pytest.raises(InvalidModelValue, match=f"link {link} \\(slope {slope}\\)") as caught:
        water_fill(lats, rate)
    assert "flows sum to" not in str(caught.value)


@pytest.mark.parametrize("links, R, rate, level", [
    ([{"a": 5.387781480412552e+198, "b": 0.0},
      {"a": 7.082082939430929e-167, "b": 2.1183678723555767e-221},
      {"a": 3.2153282465221276e-219, "b": 1.2318754180244155e+237},
      {"a": 0.0, "b": 2.463750836048831e+237}], None, 5.35156845036706e+168, 379.00251621541366),
    ([{"a": 1.1360720795873208e-82, "b": 4.779738875588234e-240},
      {"a": 2.748805736646695e+286, "b": 1.9714410964306249e-41},
      {"a": 3.164153602728041e+62, "b": 5.034111693032627e+270},
      {"a": 5.701674983403202e+23, "b": 0.0}], 2.0, 2.8512537118241086e+156,
     3.239229733823083e+74),
], ids=["plain", "threshold"])
def test_water_fill_needs_both_past_and_share_forms(links, R, rate, level):
    # The level's rise past the corner is normal here, so each link takes
    # lo + (rise) / slope; sharing the demand by a2 / slope instead, the
    # form kept for a rise that leaves the normal range, fails the
    # certificate on both.
    net = normalize_network(links)
    if R is None:
        lats = as_pieces(net)
    else:
        _, lats = build_threshold_mechanism(net, [R] * (net.k - 1))
    res = water_fill(lats, rate)
    assert res.level == level
    assert math.fsum(res.profile.flows) == pytest.approx(rate, rel=1e-15)


def _fill(net, rate):
    return water_fill(as_pieces(net), rate)


@pytest.mark.parametrize("links, rate", [
    # The demand past the breakpoint over the summed efficiency is subnormal
    # (1e-320), underflows to 0, or underflows with the rate well above the
    # breakpoint.
    ([{"a": 1e-300, "b": 0}], 1e-20),
    ([{"a": 1e-300, "b": 0}], 1e-30),
    ([{"a": 8.2e-264, "b": 0}], 8.1e-214),
    # The same past a positive intercept, where the level is that intercept.
    ([{"a": 9.781472718775307e-96, "b": 2.601214026106118e-257}], 1.021874933126039e-269),
])
@pytest.mark.parametrize("solve", [nash_flow, opt_flow, _fill])
def test_split_below_the_normal_range_keeps_the_rate(links, rate, solve):
    assert math.fsum(solve(normalize_network(links), rate).profile.flows) == rate


@pytest.mark.parametrize("links, rate, solve, cost", [
    # A form that subtracts the intercept spread cancels or overflows here.
    (TINY_SLOPES, 1.0, opt_flow, 8.75e-301),
    (NEGATIVE_OPT, 1e30, opt_flow, 3.448415894465519e-58),
    (CANCELLING_OPT, 5.371637362363765e-171, opt_flow, 3.558188437418522e-223),
    # rate * rate overflows, but rate * level and rate * M do not.
    (TINY_SLOPES, 1e200, nash_flow, 5e+99),
    (TINY_SLOPES, 1e200, opt_flow, 5e+99),
])
def test_cost_near_the_float_range_is_exact(links, rate, solve, cost):
    # Each cost is the exact cost, rounded once.
    assert solve(normalize_network(links), rate).cost == cost


@pytest.mark.parametrize("links, rate, level", [
    (SUBNORMAL_OFFSET, 0.0, 1.205319570959975e-270),
    (OVERFLOWED_OFFSET, 1.0, 1e10),
])
@pytest.mark.parametrize("solve", [nash_flow, opt_flow])
def test_level_near_the_float_range_is_exact(links, rate, level, solve):
    # The level is the exact level, rounded once.
    assert solve(normalize_network(links), rate).level == level


@pytest.mark.parametrize("links, rate, solve, shown", [
    (OVERFLOWING_TAIL, 1e305, opt_flow, "inf"),
    (OVERFLOWING_TAIL, 1e305, nash_flow, "inf"),
    (CLIPPED_TAIL, 6.551735390898654e+233, opt_flow, "inf"),
    # The demand past the breakpoint over the summed efficiency overflows
    # where the flows do not: the overflowed level is named, not their sum.
    ([{"a": 1.0642133541320453e+278, "b": 1.0413033959967652e+279}], 4.147572523715622e+236,
     nash_flow, "inf"),
    ([{"a": 1.13371451260391, "b": 0.35291111759193095}], 1.7e308, opt_flow, "inf"),
])
def test_non_finite_closed_form_cost_raises_overflow(links, rate, solve, shown):
    # Past the zero-slope tail, rate times its intercept leaves the float
    # range; the cost reads the clipped flows, so no term is -inf.
    with pytest.raises(CostOverflow, match=re.escape(f"demand {rate!r}: {shown}")):
        solve(normalize_network(links), rate)


def test_opt_flow_past_half_the_float_range():
    # Twice the demand overflows, but the split with halved efficiencies
    # never forms it.
    net = normalize_network([{"a": 1, "b": 0}, {"a": 0, "b": 0.5}])
    res = opt_flow(net, 9e307)
    assert res.profile.flows == (0.25, 9e307)
    assert res.cost == 4.5e307
    assert nash_flow(net, 9e307).cost == 9e307 * 0.5


def test_water_fill_past_the_float_range():
    # Both links can take the whole rate, and the greatest flows sum past
    # the float range; the split itself is finite.
    flat = [PiecewiseLatency.from_affine(AffineLatency(0.0, 1.0))] * 2
    res = water_fill(flat, 1e308)
    assert res.profile.flows == (5e307, 5e307)
    assert res.cost == 1e308
    # The cost itself overflows: in a term, or in the sum of finite terms.
    with pytest.raises(CostOverflow, match="cost overflows at demand 1.5e"):
        water_fill(as_pieces(normalize_network(TINY_SLOPES)), 1.5e308)
    pricier = [PiecewiseLatency.from_affine(AffineLatency(0.0, 1.5))] * 2
    assert profile_cost(pricier, (7.5e307, 7.5e307)) == math.inf
    with pytest.raises(CostOverflow, match="cost overflows at demand 1.5e"):
        water_fill(pricier, 1.5e308)
    # The level overflows.
    steep = normalize_network([{"a": 5.731200257119632e+153, "b": 0},
                               {"a": 8.180374908255603e+18, "b": 8.425159379790497e-72},
                               {"a": 3.2947012721814057e+214, "b": 2.95270254438802e-44}])
    with pytest.raises(CostOverflow, match="level overflows at demand 9e"):
        water_fill(as_pieces(steep), 9e307)


def test_worst_equilibrium_cost_past_the_float_range():
    # Latencies near 1e300 at a demand of 4e291: the costliest equilibrium
    # overflows, and water_fill fails its own certificate, by 3.6e-9.
    lats = [
        PiecewiseLatency((0.0, 0.0786309891558882, 0.2310313258936454, 0.24201022583103526),
                         (2.38049973516264e+301, 0.0, 2.249471568219311e+301, 5.972693946022616e+300),
                         (2.188203221727081e+297, 2.4336478814063017e+300, -2.742806692837736e+300,
                          1.2556915187181594e+300), 0.16541370483903395),
        PiecewiseLatency((0.0, 2.197645227240988, 2.4704718044987635),
                         (1.1922007272733874e+299, 1.1279661715181184e+299, 0.0),
                         (1.9121793504427416e+300, 2.0587664519649988e+300, 3.681430865039991e+300)),
        PiecewiseLatency((0.0, 15176323.835745148, 180897741.5535984),
                         (0.21232875171087964, 2.9044026878405016, 0.7866214976393819),
                         (46685802.7119164, 5830016.867444158, 395886222.16401714), 180897741.5535984),
        PiecewiseLatency((0.0, 1.713253148779874e-08), (135061311.26492882, 72198173.43873087),
                         (1.4469706525167916, 2.52397534074596)),
    ]
    rate = 4.188959020557902e+291
    with pytest.raises(CostOverflow, match=re.escape(f"demand {rate!r}: inf")):
        worst_equilibrium_cost(lats, rate)
    with pytest.raises(CertificateFailed):
        water_fill(lats, rate)


def test_water_fill_supply_slope_cancels_at_unit_scale():
    # The sweep's supply slope, 1/2.975... + 8.0988... - 8.0988..., ends 14
    # ulps low; water_fill sums 1/slope afresh over the one rising link, so
    # that link takes the demand itself, not the demand times (1 + 14 ulps).
    lats = [
        PiecewiseLatency((0.0, 1.1284341780316656, 2.2303297950329277),
                         (0.0, 0.12347514674117682, 0.35618602534728927),
                         (0.8564307109317728, 1.3726040869064278, 0.8535820807229244),
                         cap=2.2088355193945333),
        PiecewiseLatency.from_affine(AffineLatency(2.9750237710636567, 0.9242488318381163)),
    ]
    rate = 7.808211419429642
    assert math.isfinite(worst_equilibrium_cost(lats, rate))
    water_fill(lats, rate)


@pytest.mark.parametrize("solve", [water_fill, worst_equilibrium_cost])
def test_sweep_past_an_overflowed_one_over_slope_raises(solve):
    # 1/5e-324 overflows, so the running supply slope reads inf - inf once
    # the capped link stops rising; a sum afresh there would drop that
    # link's width and read a worst cost of 0.
    lats = [PiecewiseLatency((0.0,), (5e-324,), (0.0,), cap=1.0),
            PiecewiseLatency.from_affine(AffineLatency(1.0, 0.0))]
    with pytest.raises(InvalidModelValue, match="running supply slope reads nan"):
        solve(lats, 1.5)


@pytest.mark.xfail(strict=True, raises=InvalidModelValue,
                   reason="ROADMAP item 2: the sweep's running demand drifts from the corner flows")
def test_water_fill_staircase_demand_matches_its_corner_flows():
    # The piece's anchor, carried as r + growth * (level - prev), sits 61e-17
    # below the sum of the least flows at its corner level 0.5569829027584378,
    # so the flows sum past the rate.
    lats = [
        PiecewiseLatency((0.0, 0.23801905887124997, 0.5301492502614241, 1.77824565120524,
                          2.0837367205322854),
                         (0.08028824493107412, 0.1029033106725229, 0.8960633354216337,
                          0.09564528529268766, 0.0),
                         (0.5378727702615191, 0.532489953597428, 0.11199676113935425,
                          2.14445732322938, 2.34375691633954)),
        PiecewiseLatency.from_affine(AffineLatency(1.164297123305668, 0.47836440153788895)),
    ]
    water_fill(lats, 0.30707629789906044)


def test_water_fill_certifies_level_zero_past_a_flat_end():
    # Past a flat segment at 0, slope*x - slope*w cancels, so the latency
    # near level 0 is known only to the rounding of slope*w.  The rates sit
    # at the flat end w, one double either side and w*(1+1e-15).
    rng = random.Random(30)
    for _ in range(3000):
        w = rng.uniform(0.1, 3.0)
        m = rng.uniform(0.1, 10.0)
        a = rng.uniform(0.1, 10.0)
        lats = [PiecewiseLatency((0.0, w), (0.0, m), (0.0, -m * w)),
                PiecewiseLatency.from_affine(AffineLatency(a, 0.0))]
        for rate in (w, math.nextafter(w, -math.inf), math.nextafter(w, math.inf), w * (1 + 1e-15)):
            res = water_fill(lats, rate)
            assert is_user_equilibrium(lats, res.profile), (w, m, a, rate)
    unit = [PiecewiseLatency((0.0, 1.0), (0.0, 1.0), (0.0, -1.0)),
            PiecewiseLatency.from_affine(AffineLatency(1.0, 0.0))]
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 0}])
    continuity_no_improvement_check(net, unit, math.nextafter(1.0, math.inf))


@pytest.mark.parametrize("rate", [5e-324, 1e-323])
def test_water_fill_certifies_subnormal_rates(rate):
    # Below the normal range a flow is known only to one subnormal, so a
    # split of one or two subnormals leaves latencies a few subnormals apart.
    lats = [PiecewiseLatency.from_affine(AffineLatency(1.0, 0.0)),
            PiecewiseLatency.from_affine(AffineLatency(3.0, 0.0))]
    assert is_user_equilibrium(lats, water_fill(lats, rate).profile)


def test_profile_cost_ignores_idle_links():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 5}])
    assert profile_cost(net.links, (2.0, 0.0)) == pytest.approx(4.0)


# ------------------------------------------------------------ worst equilibrium


def test_worst_equilibrium_equals_nash_for_affine_pair():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}])
    lats = as_pieces(net)
    for rate in (0.5, 1.0, 1.7, 3.0):
        worst = worst_equilibrium_cost(lats, rate)
        assert worst == pytest.approx(nash_flow(net, rate).cost, rel=1e-9)


def test_worst_equilibrium_zero_rate(pigou):
    assert worst_equilibrium_cost(as_pieces(pigou), 0.0) == 0.0


def test_worst_equilibrium_prefers_expensive_flat_link(pigou):
    # at rate 1, splits (x, 1-x) with x in [1, 1] only; below 1 the flat link
    # can't hold flow in equilibrium unless the first link is at latency 1
    lats = as_pieces(pigou)
    worst = worst_equilibrium_cost(lats, 1.0)
    assert worst == pytest.approx(1.0)


def water_fill_worst_cost(lats, rate):
    """Costliest equilibrium cost read off the reference level walk's intervals.

    Every equilibrium keeps each link inside its water-fill interval, and any
    flows inside them that add up to the rate form one.  If the rate does not
    exceed the sum of the low ends, every link sits at its low end.  Otherwise
    a link whose interval is a single flow pays its latency there, and every
    other link can carry more than its low end and pay the level.  The level
    comes from :func:`reference_level`, so this oracle shares no walk over
    the supply events with the sweep it checks.
    """
    level, intervals, _ = reference_fill(lats, rate)
    lows = [lo for lo, _ in intervals]
    if rate <= math.fsum(lows):
        return profile_cost(lats, lows)
    pinned = [lo if lo == hi else 0.0 for lo, hi in intervals]
    return profile_cost(lats, pinned) + level * (rate - math.fsum(pinned))


def grid_latency(lat, xs, side):
    """Values (side="left") or right limits (side="right") of lat at every x in xs."""
    idx = np.clip(np.searchsorted(np.asarray(lat.starts), xs, side=side) - 1, 0, None)
    out = np.asarray(lat.slopes)[idx] * xs + np.asarray(lat.offsets)[idx]
    past_cap = xs > lat.cap if side == "left" else xs >= lat.cap
    return np.where(past_cap, math.inf, out)


def grid_worst_cost(lats, rate, tol=1e-9):
    """Dense-grid reference for the worst equilibrium cost on two links.

    Evaluates every split on a 10001-point grid, merged with the segment and
    cap boundaries of both latencies, the water-fill interval ends and the
    cost vertex of each piece between them, and keeps the costliest split
    that passes the envy test.
    """
    lat1, lat2 = lats
    wf = water_fill(lats, rate)
    (m1, hi1), (m2, hi2) = wf.per_link_interval
    cands = {0.0, rate, m1, hi1, rate - m2, rate - hi2}
    cands.update(b for b in (*lat1.starts[1:], lat1.cap) if b <= rate)
    cands.update(rate - b for b in (*lat2.starts[1:], lat2.cap) if b <= rate)
    edges = sorted(c for c in cands if 0.0 <= c <= rate)
    starts1, starts2 = np.asarray(lat1.starts), np.asarray(lat2.starts)
    for p, q in zip(edges, edges[1:]):
        mid = 0.5 * (p + q)
        i1 = max(0, int(np.searchsorted(starts1, mid, side="left")) - 1)
        i2 = max(0, int(np.searchsorted(starts2, rate - mid, side="left")) - 1)
        s1, c1 = lat1.slopes[i1], lat1.offsets[i1]
        s2, c2 = lat2.slopes[i2], lat2.offsets[i2]
        if s1 + s2 > 0.0:
            vertex = (2.0 * s2 * rate + c2 - c1) / (2.0 * (s1 + s2))
            if p < vertex < q:
                cands.add(vertex)

    xs = np.unique(np.concatenate([np.linspace(0.0, rate, 10001), np.asarray(sorted(cands))]))
    # Both flows stay inside the caps, and a split that fills the second
    # link takes its cap exactly: rate - (rate - cap2) can round below cap2.
    xs = xs[(xs >= 0.0) & (xs <= min(rate, lat1.cap))]
    ys = np.where(xs <= rate - lat2.cap, lat2.cap, rate - xs)
    with np.errstate(invalid="ignore", over="ignore"):
        v1, rl1 = grid_latency(lat1, xs, "left"), grid_latency(lat1, xs, "right")
        v2, rl2 = grid_latency(lat2, ys, "left"), grid_latency(lat2, ys, "right")
        used1, used2 = xs > 0.0, ys > 0.0
        level = np.maximum(np.where(used1, v1, -math.inf), np.where(used2, v2, -math.inf))
        slack = tol * np.maximum(1.0, np.where(np.isfinite(level), level, 1.0))
        ok = (~used1 | (v1 <= rl2 + slack)) & (~used2 | (v2 <= rl1 + slack))
        cost = np.where(used1, xs * v1, 0.0) + np.where(used2, ys * v2, 0.0)
    return float(np.max(np.where(ok, cost, -math.inf)))


def _oracle_instances(rng):
    for _ in range(15):
        R = rng.uniform(MIN_PLATEAU_RATIO, 200.0)
        a1 = rng.uniform(0.1, 5.0)
        net = normalize_network([{"a": a1, "b": 0.0}, {"a": a1 / R, "b": rng.uniform(0.01, 3.0)}])
        params = solve_plateau_params(net)
        yield net, (params, build_plateau_mechanism(net, params)), 2.0 * params.resume_rate
    for _ in range(15):
        a1 = rng.uniform(0.2, 4.0)
        net = normalize_network([{"a": a1, "b": 0.0},
                                 {"a": rng.uniform(0.05, a1), "b": rng.uniform(0.1, 3.0)}])
        mech = build_threshold_mechanism(net, [rng.uniform(2.0, 8.0)])
        yield net, mech, 3.0 * net.breakpoints[1]


def test_worst_equilibrium_matches_grid_oracle():
    rng = random.Random(1202)
    compared = 0
    for net, mech, top in _oracle_instances(rng):
        marks = curve_breakpoints(net, mech)
        for _ in range(12):
            rate = rng.uniform(1e-3, 1.0) * top
            # Across a jump the two sides differ by design; ratio_sup takes
            # the right limit through its own jump candidate.
            if any(abs(rate - b) <= 1e-9 * b for b in marks):
                continue
            want = grid_worst_cost(mech[1], rate)
            got = worst_equilibrium_cost(mech[1], rate)
            assert got == pytest.approx(want, rel=1e-9), (net.to_json_dict(), rate)
            compared += 1
    assert compared >= 300


def _scaled_two_link_instances(rng, count):
    # Plateau and two-link threshold instances with slopes scaled by lam and
    # intercepts by mu, lam and mu across twelve orders of magnitude.
    for i in range(count):
        lam, mu = 10.0 ** rng.uniform(-6, 6), 10.0 ** rng.uniform(-6, 6)
        if i % 2:
            R, a1 = rng.uniform(MIN_PLATEAU_RATIO, 200.0), rng.uniform(0.1, 5.0)
            net = normalize_network([{"a": a1 * lam, "b": 0.0},
                                     {"a": a1 / R * lam, "b": rng.uniform(0.01, 3.0) * mu}])
            params = solve_plateau_params(net)
            yield net, (params, build_plateau_mechanism(net, params)), params.jump_rate
        else:
            a1 = rng.uniform(0.2, 4.0)
            net = normalize_network([{"a": a1 * lam, "b": rng.uniform(0.0, 1.0) * mu},
                                     {"a": rng.uniform(0.05, a1) * lam,
                                      "b": rng.uniform(1.1, 3.0) * mu}])
            yield net, build_threshold_mechanism(net, [rng.uniform(2.0, 8.0)]), None


def test_worst_equilibrium_matches_cost_pieces():
    # The water-fill oracle and the closed-form numerator of the piece model
    # agree at random rates and on both sides of every mark, down to the
    # neighbouring doubles.  The piece model closes the hold at the plateau
    # jump rate by convention, so that one rate is skipped.
    rng = random.Random(1010)
    compared = 0
    for net, mech, jump in _scaled_two_link_instances(rng, 120):
        marks = curve_breakpoints(net, mech)
        rates = [rng.uniform(0.0, 2.0) * marks[-1] for _ in range(8)]
        for b in marks:
            rates += [math.nextafter(b, 0.0), b, math.nextafter(b, math.inf),
                      b * (1 - 1e-10), b * (1 + 1e-10)]
        rates = [r for r in rates if r > 0.0 and r != jump]
        for r, sample in zip(rates, ratio_curve(net, mech, rates)):
            got = water_fill_worst_cost(mech[1], r)
            assert got == pytest.approx(sample.cost_num, rel=1e-12), (net.to_json_dict(), r)
            compared += 1
    assert compared >= 2500


def test_worst_equilibrium_scale_covariant_near_jump():
    # Slopes 1e-4: just below the jump only the hold split is an equilibrium,
    # whatever the size of the latency slack the certificate allows.
    net = normalize_network([{"a": 1e-4, "b": 0.0}, {"a": 1 / 3e4, "b": 1.0}])
    params = solve_plateau_params(net)
    lats = build_plateau_mechanism(net, params)
    r = params.jump_rate * (1 - 1e-10)
    assert worst_equilibrium_cost(lats, r) == pytest.approx(30224.42577985392, rel=1e-12)


def test_worst_equilibrium_capped_second_link():
    # The second link fills to its cap; rate - x may round one ulp past it.
    lats = [PiecewiseLatency.from_affine(AffineLatency(1.0, 1.0)),
            PiecewiseLatency((0.0,), (0.0,), (0.5,), cap=0.1)]
    assert worst_equilibrium_cost(lats, 0.7) == pytest.approx(1.01, rel=1e-12)
    assert worst_equilibrium_cost(lats, 1.1) == pytest.approx(2.05, rel=1e-12)


def _random_piecewise(rng):
    # Monotone piecewise latency with flat pieces, upward jumps and maybe a cap.
    starts = [0.0] + sorted(rng.uniform(0.05, 3.0) for _ in range(rng.randint(0, 3)))
    slopes, offsets = [], []
    left = rng.uniform(0.0, 2.0)
    for i, s in enumerate(starts):
        m = 0.0 if rng.random() < 0.3 else rng.uniform(0.1, 3.0)
        v = left + (rng.uniform(0.0, 1.5) if i and rng.random() < 0.4 else 0.0)
        slopes.append(m)
        offsets.append(v - m * s)
        if i + 1 < len(starts):
            left = m * starts[i + 1] + offsets[-1]
    cap = rng.uniform(0.2, 4.0) if rng.random() < 0.4 else math.inf
    return PiecewiseLatency(tuple(starts), tuple(slopes), tuple(offsets), cap=cap)


def test_worst_equilibrium_random_piecewise_pairs():
    # Never raises on a feasible rate.  At full capacity both links sit at
    # their caps, and the grid oracle agrees.  At other rates the oracle can
    # miss an equilibrium that needs a flow exactly at a jump, so it is
    # compared only where it finds a finite equilibrium cost.
    rng = random.Random(2024)
    compared = 0
    for _ in range(150):
        lats = [_random_piecewise(rng), _random_piecewise(rng)]
        caps = (lats[0].cap, lats[1].cap)
        if sum(caps) < 6.0:
            full = worst_equilibrium_cost(lats, sum(caps))
            assert full == pytest.approx(profile_cost(lats, caps), rel=1e-12), (lats, caps)
            assert grid_worst_cost(lats, sum(caps)) == pytest.approx(full, rel=1e-9), (lats, caps)
        for r in [rng.uniform(0.0, min(sum(caps), 6.0)) for _ in range(8)]:
            got = worst_equilibrium_cost(lats, r)
            want = grid_worst_cost(lats, r)
            if math.isfinite(want):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (lats, r)
                compared += 1
    assert compared >= 1000


def test_worst_equilibrium_any_number_of_links():
    assert anarchy.worst_equilibrium_cost_two_links is worst_equilibrium_cost
    lone = [PiecewiseLatency.from_affine(AffineLatency(2.0, 1.0))]
    assert worst_equilibrium_cost(lone, 3.0) == 21.0
    net = normalize_network([{"a": 1, "b": 0}, {"a": 0.5, "b": 1}, {"a": 0.2, "b": 2}])
    for rate in (0.5, 1.7, 3.1, 9.0):
        got = worst_equilibrium_cost(as_pieces(net), rate)
        assert got == pytest.approx(nash_flow(net, rate).cost, rel=1e-12)


def three_link_flats():
    # Links 0 and 1 are flat at level 1 on flows (1, 2] and [0, 1]; link 2
    # jumps from 0.5 to 1 at flow 1/4 and rises from there.
    return [PiecewiseLatency((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (0.0, 1.0, -1.0)),
            PiecewiseLatency((0.0, 1.0), (0.0, 2.0), (1.0, -1.0)),
            PiecewiseLatency((0.0, 0.25), (2.0, 2.0), (0.0, 0.5))]


@pytest.mark.parametrize("rate, cost", [
    # Links 0 and 2 rise together to level 1/2, where link 2 stops at 1/4.
    (0.75, 0.375),
    # Link 0 alone rises to level 1; link 2 keeps 1/4 at 1/2.
    (1.25, 1.125),
    # The two flats share the slack at level 1, link 2 still pays 1/2.
    (2.0, 1.875),
    (3.25, 3.125),
    # Past the flats every link rises at level L with rate 2L + 5/4.
    (4.25, 6.375),
])
def test_worst_equilibrium_three_links_share_flat_slack(rate, cost):
    assert worst_equilibrium_cost(three_link_flats(), rate) == pytest.approx(cost, rel=1e-12)


def swept_cost(lats, rates):
    """Costliest equilibrium costs read off the pieces of the supply-event sweep."""
    pieces, lo = [], 0.0
    for seg in _equilibrium_segs(lats):
        if seg.hi > lo:
            pieces.append(seg)
            lo = seg.hi
        if seg.hi == math.inf:
            break
    his = [seg.hi for seg in pieces]
    out = []
    for r in rates:
        i = bisect_left(his, r)
        if his[i] == r and not pieces[i].closed:
            i += 1
        out.append(pieces[i].at(r)[0])
    return his[:-1], out


def test_equilibrium_segs_three_links_share_flat_slack():
    lats = three_link_flats()
    ends, costs = swept_cost(lats, [0.75, 1.25, 2.0, 3.25, 4.25, 3.25 + 1e-9])
    assert costs[:5] == pytest.approx([0.375, 1.125, 1.875, 3.125, 6.375], rel=1e-12)
    # Just past the flats link 2 rises past its jump and pays the level.
    assert costs[5] == pytest.approx(3.25, rel=1e-8)
    assert 1.25 in ends and 3.25 in ends


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equilibrium_segs_match_worst_equilibrium_cost(seed):
    # Random monotone piecewise latencies on 2 to 4 links, with flats, jumps
    # and caps, the last link uncapped: the swept pieces and the water-fill
    # oracle agree at random rates and at every piece end.
    rng = random.Random(seed)
    compared = 0
    for _ in range(200):
        lats = [_random_piecewise(rng) for _ in range(rng.randint(2, 4))]
        lats[-1] = lats[-1]._replace(cap=math.inf)
        ends, _ = swept_cost(lats, [])
        rates = [rng.uniform(0.0, 2.0 * max(ends, default=1.0)) for _ in range(20)] + ends
        rates = [r for r in rates if r > 0.0]
        for r, got in zip(rates, swept_cost(lats, rates)[1]):
            assert got == pytest.approx(water_fill_worst_cost(lats, r), rel=1e-12), (lats, r)
            compared += 1
    assert compared >= 5000


def test_worst_equilibrium_lands_past_jump_one_double_above_release():
    # One double above a release the costliest split has risen past link 0's
    # jump; the sweep puts the jump at the recomputed demand, and the lookup
    # reads it there.  water_fill reads its level off the same sweep, so its
    # split is past the jump too.
    lats = [PiecewiseLatency((0.0, 1.9690680809679966, 2.4479491205430772),
                             (0.0, 0.0, 0.9710562505236012),
                             (0.08756568025326139, 0.08756568025326139, -0.8020380049098299)),
            PiecewiseLatency((0.0, 0.7683142212666755, 2.973868512494814),
                             (2.229290751847136, 2.691536475850767, 1.34228609878481),
                             (0.38779043953099857, 0.032640476059297985, 4.899695678934435),
                             cap=2.8106823478406935),
            PiecewiseLatency((0.0, 1.1770984210033144), (2.9184985676406754, 0.0),
                             (0.19960731962053035, 3.6349673752908043))]
    r = 3.451812796813351
    got = worst_equilibrium_cost(lats, r)
    assert got == pytest.approx(5.436806359620762, rel=1e-12)
    assert got == swept_cost(lats, [r])[1][0]
    assert water_fill(lats, r).cost == pytest.approx(got, rel=1e-12)


def _plateau_mechanism(links):
    net = normalize_network(links)
    params = solve_plateau_params(net)
    return net, (params, list(build_plateau_mechanism(net, params)))


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_sweep_per_plateau_mechanism(monkeypatch):
    # A plateau job's supremum, curve and four worst-cost probes share one
    # sweep, and the probes never solve a water fill.
    calls = _count_calls(monkeypatch, anarchy.equilibrium, "_equilibrium_segs")

    def no_water_fill(*args, **kwargs):
        raise AssertionError("worst_equilibrium_cost called water_fill")

    monkeypatch.setattr(anarchy.equilibrium, "water_fill", no_water_fill)
    rng = random.Random(77)
    for n in range(1, 4):
        R = rng.uniform(MIN_PLATEAU_RATIO, 200.0)
        net, mech = _plateau_mechanism([{"a": 1.0, "b": 0.0}, {"a": 1.0 / R, "b": rng.uniform(0.1, 2.0)}])
        top = mech[0].resume_rate
        sup, _ = ratio_sup(net, mech)
        ratio_curve(net, mech, [top * (j + 1) / 20 for j in range(40)])
        for u in (0.3, 0.9, 1.0, 1.7):
            worst = worst_equilibrium_cost(mech[1], u * top)
            assert worst <= sup * opt_flow(net, u * top).cost * (1 + 1e-12)
        assert len(calls) == n


def test_memo_rebuilds_for_equal_but_distinct_inputs(monkeypatch):
    # The memos are keyed on identity: an equal network or equal latencies
    # built anew are swept and cut anew, with the same results.
    sweeps = _count_calls(monkeypatch, anarchy.equilibrium, "_equilibrium_segs")
    builds = _count_calls(monkeypatch, anarchy.analysis, "_pieces")
    links = [{"a": 1.0, "b": 0.0}, {"a": 0.25, "b": 1.0}]
    net, mech = _plateau_mechanism(links)
    first = anarchy.cost_pieces(net, mech)
    assert anarchy.cost_pieces(net, mech) is first and len(builds) == 1
    twin = [lat._replace() for lat in mech[1]]
    assert twin == list(mech[1])
    assert anarchy.cost_pieces(net, (mech[0], twin)) == first
    assert len(builds) == 2 and len(sweeps) == 2
    # Each memo keeps one entry: back on the first latencies, they are swept again.
    assert anarchy.cost_pieces(normalize_network(links), mech) == first
    assert len(builds) == 3 and len(sweeps) == 3
    plain = normalize_network(links)
    r = 1.3
    assert worst_equilibrium_cost(as_pieces(plain), r) == pytest.approx(nash_flow(plain, r).cost, rel=1e-12)
    # Latencies built and dropped one after another may reuse ids; each still
    # gets its own sweep.
    rng = random.Random(5)
    for _ in range(50):
        other = normalize_network([{"a": rng.uniform(0.1, 3.0), "b": rng.uniform(0.0, 2.0)}
                                   for _ in range(rng.randint(1, 4))])
        got = worst_equilibrium_cost(as_pieces(other), r)
        assert got == pytest.approx(nash_flow(other, r).cost, rel=1e-12)
        assert ratio_sup(other) == ratio_sup(normalize_network(other.to_json_dict()["links"]))


def test_memo_sees_a_latency_replaced_in_place():
    net, (params, lats) = _plateau_mechanism([{"a": 1.0, "b": 0.0}, {"a": 0.25, "b": 1.0}])
    steep = PiecewiseLatency.from_affine(AffineLatency(1.0, 1.0))
    r = 0.8 * params.jump_rate
    want_sup = ratio_sup(net, (params, [lats[0], steep]))
    want_worst = worst_equilibrium_cost([lats[0], steep], r)
    before_sup, before_worst = ratio_sup(net, (params, lats)), worst_equilibrium_cost(lats, r)
    lats[1] = steep
    assert ratio_sup(net, (params, lats)) == want_sup != before_sup
    assert worst_equilibrium_cost(lats, r) == want_worst != before_worst


def _all_capped():
    yield [PiecewiseLatency.from_affine(AffineLatency(2.0, 1.0), cap=3.0)]
    yield [PiecewiseLatency((0.0,), (0.0,), (0.5,), cap=0.7)]
    yield [PiecewiseLatency.from_affine(AffineLatency(1.0, 1.0), cap=0.9),
           PiecewiseLatency((0.0,), (0.0,), (0.5,), cap=0.1)]
    # Links 0 and 1 end on their flats at level 1; link 2 rises on to its cap.
    yield [lat._replace(cap=cap) for lat, cap in zip(three_link_flats(), (2.0, 1.0, 1.5))]
    rng = random.Random(88)
    for _ in range(100):
        yield [lat._replace(cap=rng.uniform(0.2, 4.0))
               for lat in (_random_piecewise(rng) for _ in range(rng.randint(1, 4)))]


def test_worst_equilibrium_all_capped_ends_at_capacity():
    for lats in _all_capped():
        caps = [lat.cap for lat in lats]
        full = math.fsum(caps)
        assert worst_equilibrium_cost(lats, full) == pytest.approx(profile_cost(lats, caps), rel=1e-12)
        for rate in (math.nextafter(full, math.inf), 1.5 * full):
            with pytest.raises(InfeasibleRate):
                worst_equilibrium_cost(lats, rate)
            with pytest.raises(InfeasibleRate):
                water_fill(lats, rate)
        r = 0.6 * full
        assert worst_equilibrium_cost(lats, r) == pytest.approx(water_fill_worst_cost(lats, r), rel=1e-9)
