"""Costs, ratios and mechanisms on networks whose coefficients span the float range.

An affine network's selfish cost is at most 4/3 of the optimal cost, and
both costs are finite and non-negative; so are the levels and flows of the
splits, plain or under a mechanism, and no mechanism's ratio falls below 1.
Near the ends of the float range a result may instead be a typed error, but
never a value that breaks these bounds, nor an exception that is not an
AnarchyError.
"""

import math
import random

import pytest

from anarchy import (
    AffineLatency,
    AnarchyError,
    CostOverflow,
    FlowProfile,
    InvalidModelValue,
    NegativeCoefficient,
    NegativeRate,
    ParamOutOfRange,
    PiecewiseLatency,
    PlateauParams,
    RatioOutOfRange,
    SegmentMismatch,
    build_plateau_mechanism,
    build_threshold_mechanism,
    cost_increment,
    cost_pieces,
    lower_bound_value,
    mn_flow,
    nash_flow,
    normalize_network,
    opt_flow,
    ratio_curve,
    ratio_sup,
    recurrence_bound,
    solve_plateau_params,
    water_fill,
    worst_equilibrium_cost,
)

# Rounding of a few ulps in either cost.
RATIO_RTOL = 1e-12


def _draws(rng, count, decades):
    # Up to six links with slopes and intercepts log-uniform in
    # 10^±decades, about a fifth of the intercepts 0, about 30% of the
    # networks with a zero-slope last link above every other intercept, and
    # one log-uniform demand per network.
    def coefficient():
        return 10.0 ** rng.uniform(-decades, decades)

    for _ in range(count):
        k = rng.randint(1, 6)
        links = [{"a": coefficient(), "b": 0.0 if rng.random() < 0.2 else coefficient()}
                 for _ in range(k)]
        if k >= 2 and rng.random() < 0.3:
            top = max(link["b"] for link in links[:-1])
            links[-1] = {"a": 0.0, "b": 2.0 * top + coefficient()}
        yield links, coefficient()


HIGH = 4.0 / 3.0 * (1.0 + RATIO_RTOL)


def _non_negative(*values):
    return all(math.isfinite(v) and v >= 0.0 for v in values)


def _split_ok(res):
    return _non_negative(res.cost, res.level, *res.profile.flows)


def _ratio_ok(ratio, high=math.inf):
    return 1.0 - RATIO_RTOL <= ratio <= high


# Each entry point's bound on its value; a typed error always passes.
PLAIN = {
    "normalize_network": lambda net: True,
    "ratio_sup": lambda sup: _ratio_ok(sup[0], HIGH),
    "ratio_curve": lambda samples: all(_ratio_ok(s.ratio, HIGH) for s in samples),
    "nash_flow": _split_ok,
    "opt_flow": _split_ok,
    "water_fill": _split_ok,
    "worst_equilibrium_cost": _non_negative,
}
MECHANISMS = {
    "build_threshold_mechanism": lambda built: True,
    "threshold ratio_sup": lambda sup: _ratio_ok(sup[0]),
    "mn_flow": lambda profile: _non_negative(*profile.flows),
    "solve_plateau_params": lambda params: True,
    "build_plateau_mechanism": lambda lats: True,
    "plateau ratio_sup": lambda sup: _ratio_ok(sup[0]),
}
BOUNDS = {**PLAIN, **MECHANISMS}
# The splits whose flows can miss the rate past FlowProfile's rounding allowance.
ESCAPES = ("nash_flow", "opt_flow", "water_fill", "mn_flow")


@pytest.fixture(scope="module")
def faults():
    """Every call on the seeded draws at 10^±150 and 10^±300 that broke its
    bound or raised an exception other than an AnarchyError, by entry point;
    under "flows sum to", the splits that raised FlowProfile's sum check."""
    found = {name: [] for name in (*PLAIN, *MECHANISMS, "flows sum to")}

    def call(name, fn, *args):
        # fn(*args), or None on an exception; `links` is the current draw.
        try:
            value = fn(*args)
        except AnarchyError as exc:
            if name in ESCAPES and "flows sum to" in str(exc):
                found["flows sum to"].append((name, links, args[-1], str(exc)))
            return None
        except Exception as exc:
            found[name].append((links, args[1:], repr(exc)))
            return None
        if not BOUNDS[name](value):
            found[name].append((links, args[1:], value))
        return value

    rng = random.Random(1)
    for decades in (150, 300):
        for links, rate in _draws(rng, 1500, decades):
            net = call("normalize_network", normalize_network, links)
            if net is None:
                continue
            # The drawn demand, and where the optimal flow opens each link:
            # half each finite breakpoint, and the next double above it.
            rates = [rate]
            for b in net.breakpoints:
                if b < math.inf:
                    rates += [b / 2.0, math.nextafter(b / 2.0, math.inf)]
            call("ratio_sup", ratio_sup, net)
            call("ratio_curve", ratio_curve, net, None, [r for r in rates if r > 0.0])
            lats = [PiecewiseLatency.from_affine(link) for link in net.links]
            threshold = call("build_threshold_mechanism", build_threshold_mechanism, net,
                             [2.0] * (net.k - 1))
            for r in rates:
                call("nash_flow", nash_flow, net, r)
                call("opt_flow", opt_flow, net, r)
                call("water_fill", water_fill, lats, r)
                call("worst_equilibrium_cost", worst_equilibrium_cost, lats, r)
                if threshold is not None:
                    call("mn_flow", mn_flow, net, threshold[0], r)
            if threshold is not None:
                call("threshold ratio_sup", ratio_sup, net, threshold)
            if net.k == 2:
                params = call("solve_plateau_params", solve_plateau_params, net)
                if params is not None:
                    plateau = call("build_plateau_mechanism", build_plateau_mechanism, net, params)
                    if plateau is not None:
                        call("plateau ratio_sup", ratio_sup, net, (params, plateau))
    return found


def _summary(found, names):
    bad = {name: found[name] for name in names if found[name]}
    return {name: (len(cases), cases[:2]) for name, cases in bad.items()}


def test_plain_costs_and_ratios_stay_in_bounds(faults):
    assert not _summary(faults, PLAIN)


def test_mechanisms_stay_in_bounds(faults):
    assert not _summary(faults, MECHANISMS)


def test_no_flow_sum_escapes(faults):
    # A network that normalizes splits every rate, or raises a typed error
    # that names the cause; FlowProfile's own sum check is no such error.
    assert not _summary(faults, ["flows sum to"])


def test_self_built_mechanisms_dominate_their_links():
    # A mechanism built for a network raises its latencies, up to rounding,
    # so cost_pieces never refuses it as undercutting a link.
    built = 0
    for d in (3, 8, 15, 30, 150, 300):
        for links, _ in _draws(random.Random(1000 + d), 500, d):
            try:
                net = normalize_network(links)
                mechanisms = [build_threshold_mechanism(net, [2.0] * (net.k - 1))]
                if net.k == 2:
                    params = solve_plateau_params(net)
                    mechanisms.append((params, build_plateau_mechanism(net, params)))
            except AnarchyError:
                continue
            for mech in mechanisms:
                built += 1
                try:
                    cost_pieces(net, mech)
                except ParamOutOfRange:
                    pytest.fail(f"self-built mechanism refused on {links}")
                except AnarchyError:
                    pass
    assert built > 2000


@pytest.mark.parametrize("decades", [15, 30, 150, 300])
def test_threshold_water_fill_agrees_with_the_stage_recursion(decades):
    # Wherever mn_flow splits a rate under the threshold mechanism,
    # water_fill on its latencies splits it too, to 1e-9 of the rate, or
    # finds the costs past the float range; efficiencies many orders apart
    # cancel the sweep's running supply slope on some of these draws.
    compared = 0
    for links, demand in _draws(random.Random(1000 + decades), 500, decades):
        try:
            net = normalize_network(links)
            params, lats = build_threshold_mechanism(net, [2.0] * (net.k - 1))
        except AnarchyError:
            continue
        for rate in (0.5 * demand, demand, 3.0 * demand):
            try:
                expected = mn_flow(net, params, rate).flows
            except AnarchyError:
                continue
            try:
                flows = water_fill(lats, rate).profile.flows
            except CostOverflow:
                continue
            assert all(abs(f - g) <= 1e-9 * rate for f, g in zip(flows, expected)), \
                (links, rate, flows, expected)
            compared += 1
    assert compared > 1000


def test_threshold_three_links_at_the_last_breakpoint():
    # The running supply slope cancels to 0 at level 1.1641532182693475e20;
    # the split and the ratio come from the supply slope summed afresh there.
    net = normalize_network([{"a": 1.5, "b": 0.0}, {"a": 1.929371316848415e16, "b": 1.0},
                             {"a": 0.5, "b": 2.3283064365386954e20}])
    mech = build_threshold_mechanism(net, [2.0, 2.0])
    rate = 1.5522042910257968e20
    assert water_fill(mech[1], rate).profile.flows == mn_flow(net, mech[0], rate).flows
    bound = recurrence_bound([2.0, 2.0]).value
    assert 1.0 - RATIO_RTOL <= ratio_sup(net, mech)[0] <= bound * (1.0 + RATIO_RTOL)


# An integer past the float range, as a library caller may pass it.
HUGE = 10**400
_NET = normalize_network([{"a": 1, "b": 0}, {"a": 0.1, "b": 1}])
_LATS = [PiecewiseLatency.from_affine(link) for link in _NET.links]


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: nash_flow(_NET, HUGE), NegativeRate, id="nash_flow"),
    pytest.param(lambda: opt_flow(_NET, HUGE), NegativeRate, id="opt_flow"),
    pytest.param(lambda: water_fill(_LATS, HUGE), NegativeRate, id="water_fill"),
    pytest.param(lambda: worst_equilibrium_cost(_LATS, HUGE), NegativeRate,
                 id="worst_equilibrium_cost"),
    pytest.param(lambda: mn_flow(_NET, build_threshold_mechanism(_NET, [2.0])[0], HUGE),
                 NegativeRate, id="mn_flow"),
    pytest.param(lambda: FlowProfile(HUGE, [1.0]), NegativeRate, id="FlowProfile"),
    pytest.param(lambda: ratio_curve(_NET, None, [HUGE]), NegativeRate, id="ratio_curve"),
    pytest.param(lambda: AffineLatency(HUGE, 1.0), NegativeCoefficient, id="AffineLatency-slope"),
    pytest.param(lambda: AffineLatency(1.0, -HUGE), NegativeCoefficient,
                 id="AffineLatency-intercept"),
    pytest.param(lambda: normalize_network([{"a": 1, "b": HUGE}]), NegativeCoefficient,
                 id="normalize_network"),
    pytest.param(lambda: PiecewiseLatency((0.0,), (HUGE,), (0.0,)), InvalidModelValue,
                 id="PiecewiseLatency"),
    pytest.param(lambda: PlateauParams.from_flows(_NET, HUGE, 1.0), ParamOutOfRange,
                 id="PlateauParams.from_flows"),
    pytest.param(lambda: lower_bound_value(HUGE), RatioOutOfRange, id="lower_bound_value"),
    pytest.param(lambda: cost_increment(_NET, 0.0, 1.0, 1.5), SegmentMismatch,
                 id="cost_increment-link-count"),
])
def test_library_inputs_raise_typed_errors(call, error):
    # The integer reads as inf, as the JSON reader reads it, and meets the
    # finite checks; a link count must be an integer.
    with pytest.raises(error):
        call()
