"""Scale covariance of flows, costs and ratios.

Scaling every slope by lam and every intercept by mu, and demand by mu/lam,
scales every flow by mu/lam and every latency by mu, so every cost scales by
mu^2/lam while cost ratios, regimes and the supremum stay put and the
supremum's location scales with demand.  Checked across twelve orders of
magnitude for plain, threshold and plateau instances.
"""

import math
import random

import pytest

from anarchy import (
    FlowProfile,
    InvalidModelValue,
    NotContinuousAtEquilibrium,
    ParamOutOfRange,
    PiecewiseLatency,
    PlateauParams,
    SegmentMismatch,
    build_plateau_mechanism,
    build_threshold_mechanism,
    continuity_no_improvement_check,
    cost_increment,
    cost_pieces,
    is_user_equilibrium,
    mn_uses_links_no_earlier_than_opt,
    nash_flow,
    normalize_network,
    opt_flow,
    ratio_curve,
    ratio_sup,
    solve_plateau_params,
    water_fill,
    worst_equilibrium_cost,
)
from anarchy.mechanisms import MIN_PLATEAU_RATIO

SCALES = [(lam, mu) for lam in (1e-6, 1e-2, 1e3, 1e6) for mu in (1e-6, 1e-1, 1e4, 1e6)]


def _plain(rng):
    links = [{"a": rng.uniform(0.05, 5.0), "b": rng.uniform(0.0, 4.0)} for _ in range(rng.randint(2, 6))]
    if rng.random() < 0.3:
        links.append({"a": 0.0, "b": 5.0})
    return links, None


def _threshold(rng):
    k = rng.randint(3, 7)
    R = [rng.uniform(2.0, 6.0) for _ in range(k - 1)]
    links, total = [], 0.0
    for i in range(k):
        # Every other link is planted well clear of its freeze test.
        e = R[i - 1] * total * rng.uniform(1.5, 3.0) if i % 2 else rng.uniform(0.5, 1.0)
        links.append({"a": 1.0 / e, "b": i + rng.uniform(0.0, 0.9)})
        total += e
    return links, R


def _plateau(rng):
    R = rng.uniform(MIN_PLATEAU_RATIO + 0.1, 200.0)
    a1 = rng.uniform(0.1, 5.0)
    return [{"a": a1, "b": 0.0}, {"a": a1 / R, "b": rng.uniform(0.01, 3.0)}], "plateau"


def _build(links, kind, lam, mu):
    net = normalize_network([{"a": l["a"] * lam, "b": l["b"] * mu} for l in links])
    if kind is None:
        return net, None
    if kind == "plateau":
        params = solve_plateau_params(net)
        return net, (params, list(build_plateau_mechanism(net, params)))
    return net, build_threshold_mechanism(net, kind)


def _attains(net, mech, r, value):
    # The ratio at r, or its right limit at a piece start within 1e-12, reaches value.
    best = ratio_curve(net, mech, [r])[0].ratio
    for p in cost_pieces(net, mech):
        if abs(p.lo - r) <= 1e-12 * r:
            num, den = p.costs(0.0)
            best = max(best, num / den)
    return best >= value - 1e-9


INSTANCES = [make(random.Random(seed)) for seed in range(4) for make in (_plain, _threshold, _plateau)]


@pytest.mark.parametrize("links,kind", INSTANCES)
def test_costs_and_ratios_scale(links, kind):
    base, base_mech = _build(links, kind, 1.0, 1.0)
    value, where = ratio_sup(base, base_mech)
    top = 3.0 * max(base.breakpoints[-1], 1.0)
    if kind == "plateau":
        top = 2.0 * base_mech[0].resume_rate
    rng = random.Random(repr(links))
    rates = sorted(rng.uniform(0.0, top) for _ in range(40))
    base_curve = ratio_curve(base, base_mech, rates)
    for lam, mu in SCALES:
        s = mu / lam
        net, mech = _build(links, kind, lam, mu)
        for r in rates[::8]:
            assert nash_flow(net, r * s).cost == pytest.approx(nash_flow(base, r).cost * mu * s, rel=1e-9)
            assert opt_flow(net, r * s).cost == pytest.approx(opt_flow(base, r).cost * mu * s, rel=1e-9)
            if kind == "plateau":
                want = worst_equilibrium_cost(base_mech[1], r) * mu * s
                assert worst_equilibrium_cost(mech[1], r * s) == pytest.approx(want, rel=1e-9)
        curve = ratio_curve(net, mech, [r * s for r in rates])
        for got, want in zip(curve, base_curve):
            assert got.cost_num == pytest.approx(want.cost_num * mu * s, rel=1e-9)
            assert got.cost_den == pytest.approx(want.cost_den * mu * s, rel=1e-9)
            assert got.ratio == pytest.approx(want.ratio, rel=1e-9)
            assert got.regime == want.regime
        scaled_value, scaled_where = ratio_sup(net, mech)
        assert scaled_value == pytest.approx(value, rel=1e-9)
        if math.isinf(where) or math.isinf(scaled_where):
            assert scaled_where == where
        elif scaled_where != pytest.approx(where * s, rel=1e-9):
            # The plateau mechanism balances its hold and jump peaks, so the
            # supremum may sit at either; the other must reach it too.
            assert _attains(base, base_mech, scaled_where / s, value), (lam, mu, where, scaled_where)


@pytest.mark.parametrize("lam, mu", [pytest.param(1.0, mu, id=str(mu))
                                     for mu in sorted({mu for _, mu in SCALES} | {1e-12})]
                         + [pytest.param(1e3, 1e-6, id="slope1000.0-1e-06")])
def test_checks_reject_bad_inputs_at_every_scale(lam, mu):
    # Each check's slack is relative to the values it compares, so a latency
    # gap of order mu stays a violation however small mu is, with slopes
    # scaled by lam and flows by s = mu / lam.
    s = mu / lam
    links = [{"a": lam, "b": 0.0}, {"a": lam, "b": mu}]
    net = normalize_network(links)
    lats = [PiecewiseLatency.from_affine(link) for link in net.links]
    # All flow on the link that starts at latency mu.
    assert not is_user_equilibrium(lats, FlowProfile(rate=s, flows=(0.0, s)))
    # The first latency doubles at flow s/2, where the equilibrium sits; the
    # rate fills its first segment exactly, so the split lands on the jump.
    jumpy = PiecewiseLatency((0.0, s / 2.0), (lam, lam), (0.0, mu / 2.0))
    assert math.fsum(water_fill([jumpy, lats[1]], s / 2.0).profile.flows) == s / 2.0
    with pytest.raises(NotContinuousAtEquilibrium):
        continuity_no_improvement_check(net, [jumpy, lats[1]], s / 2.0)
    # The last stage starts before the optimum opens its link.
    net3 = normalize_network(links + [{"a": 0.01 * lam, "b": 2.0 * mu}])
    params, _ = build_threshold_mechanism(net3, [2.0, 2.0])
    last = params.stages[-1]
    early = last._replace(global_start_rate=0.6 * last.global_start_rate)
    params = params._replace(stages=params.stages[:-1] + (early,))
    assert not mn_uses_links_no_earlier_than_opt(net3, params)
    # A rate half again past the end of the one-link segment.
    with pytest.raises(SegmentMismatch):
        cost_increment(net, 0.0, 1.5 * s, 1)
    # Flows that sum to 500 times the rate.
    with pytest.raises(InvalidModelValue):
        FlowProfile(rate=s, flows=(s, 499.0 * s))
    # A plateau hold that starts at a tenth of the breakpoint, and plateau
    # marks built for a slope ratio 1e-8 away.
    steep = normalize_network([{"a": 4.0 * lam, "b": 0.0}, {"a": lam, "b": mu}])
    r2 = steep.breakpoints[1]
    with pytest.raises(ParamOutOfRange):
        PlateauParams.from_flows(steep, 0.1 * r2, 2.0 * r2)
    other = normalize_network([{"a": 4.0 * lam * (1.0 + 1e-8), "b": 0.0}, {"a": lam, "b": mu}])
    with pytest.raises(ParamOutOfRange):
        build_plateau_mechanism(other, solve_plateau_params(steep))
