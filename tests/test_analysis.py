"""Tests for ratio curves, suprema, and the closed-form bound reports."""

import math
import random
import re
from fractions import Fraction

import pytest

from anarchy import (
    AnarchyError,
    BoundReport,
    CostOverflow,
    CostUnderflow,
    CurveSample,
    InvalidModelValue,
    NegativeRate,
    NotContinuousAtEquilibrium,
    ParamTooSmall,
    PiecewiseLatency,
    RatioOutOfRange,
    benign_bound,
    build_plateau_mechanism,
    build_threshold_mechanism,
    continuity_no_improvement_check,
    cost_pieces,
    curve_breakpoints,
    greedy_parameters,
    lower_bound_value,
    mn_flow,
    nash_flow,
    normalize_network,
    opt_flow,
    profile_cost,
    ratio_curve,
    ratio_sup,
    recurrence_bound,
    solve_plateau_params,
    tail_ratio,
    two_link_simple_bound,
    worst_equilibrium_cost,
)
from anarchy.mechanisms import MIN_PLATEAU_RATIO, PLATEAU_TARGET, PlateauParams, ThresholdParams
from anarchy.model import _ROUNDING
from conftest import NEGATIVE_OPT, OVERFLOWED_EFFICIENCY, OVERFLOWED_SUM, SUBNORMAL_OPT, random_network


def test_pigou_sup_four_thirds(pigou):
    value, where = ratio_sup(pigou)
    assert value == pytest.approx(4 / 3, abs=1e-12)
    assert where == pytest.approx(1.0, abs=1e-9)


def test_two_affine_links_sup():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}])
    value, where = ratio_sup(net)
    assert value == pytest.approx(8 / 7, abs=1e-12)
    assert where == pytest.approx(1.0, abs=1e-9)


def test_ratio_curve_pigou_values(pigou):
    rows = ratio_curve(pigou, None, [0.5, 1.0, 1.5, 2.5])
    assert CurveSample._fields == ("r", "cost_num", "cost_den", "ratio", "regime")
    assert [s.ratio for s in rows] == pytest.approx([1.0, 4 / 3, 1.2, 10 / 9])
    assert rows[0].regime == "nash1/opt2"
    assert rows[1].regime == "nash2/opt2"
    for s in rows:
        assert s.ratio == pytest.approx(s.cost_num / s.cost_den, rel=1e-14)


def test_ratio_curve_rejects_nonpositive_rate(pigou):
    with pytest.raises(NegativeRate):
        ratio_curve(pigou, None, [0.5, 0.0])


def test_curve_breakpoints_pigou(pigou):
    assert curve_breakpoints(pigou) == pytest.approx((0.5, 1.0))
    params, lats = build_threshold_mechanism(pigou, [2.0])
    pts = curve_breakpoints(pigou, (params, lats))
    assert 0.5 in pts  # the freeze point survives deduplication


def test_threshold_tags_at_freeze_point(pigou):
    # The capped stage holds its freeze point while the optimum already uses
    # the flat link there: a one-demand piece carries that pair.
    params, lats = build_threshold_mechanism(pigou, [2.0])
    rows = ratio_curve(pigou, (params, lats), [0.5 * (1 - 1e-12), 0.5, 0.5 * (1 + 1e-12)])
    assert [s.regime for s in rows] == ["stage0/opt1", "stage0/opt2", "stage1/opt2"]
    pieces = cost_pieces(pigou, (params, lats))
    assert [(p.lo, p.hi, p.closed) for p in pieces] == [
        (0.0, 0.5, False), (0.5, 0.5, True), (0.5, math.inf, False)]


def _solver_costs(net, mech, r):
    den = opt_flow(net, r).cost
    if mech is None:
        return nash_flow(net, r).cost, den
    if isinstance(mech[0], ThresholdParams):
        return profile_cost(net.links, mn_flow(net, mech[0], r).flows), den
    return worst_equilibrium_cost(mech[1], r), den


def test_cost_pieces_match_flow_solvers():
    rng = random.Random(31)
    cases = []
    for _ in range(30):
        net = random_network(rng, kmax=7, allow_flat=True)
        cases.append((net, None))
        if net.k >= 2:
            cases.append((net, build_threshold_mechanism(net, [rng.uniform(2.0, 4.0)] * (net.k - 1))))
    for _ in range(15):
        R = rng.uniform(1.2, 150.0)
        net = normalize_network([{"a": 1.0, "b": 0.0}, {"a": 1.0 / R, "b": rng.uniform(0.1, 2.0)}])
        r2 = net.breakpoints[1]
        # At or below 96/53 the latencies stay affine but the marks still set the regimes.
        params = (solve_plateau_params(net) if R > MIN_PLATEAU_RATIO
                  else PlateauParams.from_flows(net, 0.7 * r2, 1.5 * r2))
        cases.append((net, (params, list(build_plateau_mechanism(net, params)))))
    for net, mech in cases:
        pieces = cost_pieces(net, mech)
        assert pieces[0].lo == 0.0 and math.isinf(pieces[-1].hi)
        for a, b in zip(pieces, pieces[1:]):
            assert b.lo == a.hi and b.lo <= b.hi
            assert b.lo < b.hi or b.closed  # a one-demand piece holds its demand
        marks = curve_breakpoints(net, mech)
        rates = [rng.uniform(0.0, 3.0 * max(marks, default=1.0)) for _ in range(40)] + list(marks)
        for sample in ratio_curve(net, mech, rates):
            num, den = _solver_costs(net, mech, sample.r)
            assert sample.cost_den == pytest.approx(den, rel=1e-9), (net.to_json_dict(), sample)
            assert sample.cost_num == pytest.approx(num, rel=1e-9), (net.to_json_dict(), sample)


def test_tail_ratios():
    pigou = normalize_network([{"a": 1, "b": 0}, {"a": 0, "b": 1}])
    assert tail_ratio(pigou) == pytest.approx(1.0)
    net = normalize_network([{"a": 1, "b": 0}, {"a": 0.2, "b": 1}])
    assert tail_ratio(net) == pytest.approx(1.0)
    params, lats = build_threshold_mechanism(net, [4.0])
    # freezing the first link leaves a suffix with 5/6 of the efficiency
    assert tail_ratio(net, (params, lats)) == pytest.approx(1.2)
    value, where = ratio_sup(net, (params, lats))
    assert value == pytest.approx(1.2)
    assert math.isinf(where)


def test_threshold_curve_regimes(pigou):
    params, lats = build_threshold_mechanism(pigou, [2.0])
    rows = ratio_curve(pigou, (params, lats), [0.25, 0.6, 1.2])
    assert [s.regime for s in rows] == ["stage0/opt1", "stage1/opt2", "stage1/opt2"]
    assert all(s.ratio == pytest.approx(1.0) for s in rows)


def test_plateau_sup_across_random_scaled_instances():
    # Slope ratio in (96/53, 200), first slope in [0.1, 5], intercept gap in
    # [0.01, 3]: the sweep on which plateau water-filling used to crash.
    rng = random.Random(1202)
    for _ in range(300):
        R = rng.uniform(MIN_PLATEAU_RATIO, 200.0)
        a1 = rng.uniform(0.1, 5.0)
        net = normalize_network([{"a": a1, "b": 0.0}, {"a": a1 / R, "b": rng.uniform(0.01, 3.0)}])
        params = solve_plateau_params(net)
        value, where = ratio_sup(net, (params, build_plateau_mechanism(net, params)))
        assert 1.0 <= value <= PLATEAU_TARGET + 1e-3, (net.to_json_dict(), value)
        assert 0.0 < where <= params.resume_rate


class TestPlateauCurve:
    @pytest.fixture()
    def mech(self):
        net = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
        params = solve_plateau_params(net)
        lats = build_plateau_mechanism(net, params)
        return net, (params, lats)

    def test_regime_tags(self, mech):
        net, (params, lats) = mech
        grid = [
            0.5 * params.hold_start,
            0.5 * (params.hold_start + params.hold_end),
            0.5 * (params.jump_rate + params.resume_rate),
            1.5 * params.resume_rate,
        ]
        tags = [s.regime.split("/")[0] for s in ratio_curve(net, (params, lats), grid)]
        assert tags == ["pre", "hold", "jump", "post"]

    def test_sup_at_jump(self, mech):
        net, pair = mech
        value, where = ratio_sup(net, pair)
        assert value == pytest.approx(1.1916513068941386, abs=1e-9)
        assert where == pytest.approx(pair[0].jump_rate, abs=1e-9)

    def test_breakpoints_cover_marks(self, mech):
        net, (params, lats) = mech
        pts = curve_breakpoints(net, (params, lats))
        for mark in (params.hold_start, params.jump_rate, params.resume_rate):
            assert any(abs(p - mark) < 1e-9 for p in pts)


def test_two_link_simple_bound_values():
    assert two_link_simple_bound(2.0).value == pytest.approx(1.5)
    assert two_link_simple_bound(4.0).value == pytest.approx(1.25)
    # the two branches cross exactly at R = 4
    assert two_link_simple_bound(4.0).details["freeze_side"] == pytest.approx(
        two_link_simple_bound(4.0).details["benign_side"]
    )
    with pytest.raises(ParamTooSmall):
        two_link_simple_bound(1.9)


def test_benign_bound_values():
    assert benign_bound([]).value == pytest.approx(1.0)
    assert benign_bound([4.0]).value == pytest.approx(25 / 19, abs=1e-14)
    assert benign_bound([2.0, 2.0]).value == pytest.approx(324 / 244, abs=1e-14)
    assert benign_bound([2.0, 2.0, 2.0]).value < 4 / 3
    with pytest.raises(ParamTooSmall):
        benign_bound([2.0, 1.5])


def test_recurrence_bound_single_seven_exact():
    report = recurrence_bound([7])
    assert Fraction(int(report.details["exact_numerator"]),
                    int(report.details["exact_denominator"])) == Fraction(256, 193)
    assert report.value == pytest.approx(256 / 193, abs=1e-15)
    assert report.strictly_below_four_thirds is True


def test_recurrence_bound_small_parameters_blow_up():
    # R = 2 makes the handoff term (1 + 1/2)^2 dominate
    report = recurrence_bound([2])
    assert report.value == pytest.approx(2.25)
    assert report.strictly_below_four_thirds is False


def test_greedy_parameters_stay_below_four_thirds():
    for k in range(2, 7):
        params = greedy_parameters(k)
        assert len(params) == k - 1
        assert all(isinstance(x, int) for x in params)
        report = recurrence_bound(params)
        assert report.strictly_below_four_thirds is True
    assert greedy_parameters(2) == [7]


def test_lower_bound_values():
    assert lower_bound_value(2.0).value == pytest.approx(1.1916513068941386, abs=1e-9)
    assert lower_bound_value(2.1).value >= 1.191
    assert lower_bound_value(4.0).value == pytest.approx(1.1532608784976213, abs=1e-6)
    with pytest.raises(RatioOutOfRange):
        lower_bound_value(1.9)
    with pytest.raises(RatioOutOfRange):
        lower_bound_value(4.1)


def test_lower_bound_meets_plateau_sup():
    net = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
    params = solve_plateau_params(net)
    lats = build_plateau_mechanism(net, params)
    sup, _ = ratio_sup(net, (params, lats))
    low = lower_bound_value(2.0).value
    assert abs(sup - low) <= 2e-3
    assert low <= sup + 1e-9


def test_bound_report_rejects_sub_unit_value():
    for value in (0.5, math.nan):
        with pytest.raises(AnarchyError, match="bound bogus below 1"):
            BoundReport("bogus", value, (), "nothing")


def test_two_link_certificates_split_by_efficiency():
    rng = random.Random(5)
    R = 3.0
    benign_cap = (4 + 4 * R) / (4 + 3 * R)
    super_cap = 1 + 1 / R
    seen = {"benign": 0, "super": 0}
    for _ in range(120):
        a1 = rng.uniform(0.05, 5.0)
        b2 = rng.uniform(0.1, 3.0)
        if rng.random() < 0.5:
            a2 = a1 / rng.uniform(1.0, R)  # efficiency ratio within R
        else:
            a2 = a1 / rng.uniform(R * 1.01, 20.0)
        net = normalize_network([{"a": a1, "b": 0.0}, {"a": a2, "b": b2}])
        ratio = net.efficiency[1] / net.efficiency[0]
        if ratio <= R:
            seen["benign"] += 1
            value, _ = ratio_sup(net)
            assert value <= benign_cap + 1e-9
        else:
            seen["super"] += 1
            params, lats = build_threshold_mechanism(net, [R])
            assert params.freeze_points
            value, _ = ratio_sup(net, (params, lats))
            assert value <= super_cap + 1e-9
    assert min(seen.values()) > 20


def test_benign_suite_respects_benign_bound():
    rng = random.Random(9)
    for _ in range(40):
        k = rng.randint(2, 4)
        R = [rng.uniform(2.0, 6.0) for _ in range(k - 1)]
        lam = [rng.uniform(0.2, 2.0)]
        for i in range(k - 1):
            lam.append(lam[-1] * rng.uniform(1.0, 1 + R[i] * 0.99) / 1.0)
        # keep each link's efficiency within R_i of the prefix total
        prefix = 0.0
        ok = True
        for i, v in enumerate(lam):
            if i and v > R[i - 1] * prefix:
                ok = False
            prefix += v
        if not ok:
            continue
        links = [
            {"a": 1.0 / lam[i], "b": float(i) + rng.uniform(0.0, 0.5)}
            for i in range(k)
        ]
        net = normalize_network(links)
        value, _ = ratio_sup(net)
        assert value <= benign_bound(R).value + 1e-9


def test_continuity_check_identity(pigou):
    lats = [PiecewiseLatency.from_affine(l) for l in pigou.links]
    chk = continuity_no_improvement_check(pigou, lats, 1.0)
    assert chk.ok
    assert chk.modified_cost == pytest.approx(chk.nash_cost)


def test_continuity_check_scaled(pigou):
    lats = [
        PiecewiseLatency((0.0,), (2.0,), (0.5,)),  # 2x + 1/2 on the linear link
        PiecewiseLatency.from_affine(pigou.links[1]),
    ]
    chk = continuity_no_improvement_check(pigou, lats, 1.0)
    assert chk.ok
    assert bool(chk)
    assert chk.modified_cost >= chk.nash_cost - 1e-12


def test_continuity_check_random_scalings():
    rng = random.Random(3)
    for _ in range(60):
        k = rng.randint(2, 4)
        links = [
            {"a": rng.uniform(0.1, 4.0), "b": rng.uniform(0.0, 3.0)}
            for _ in range(k)
        ]
        net = normalize_network(links)
        lats = []
        for link in net.links:
            c = rng.uniform(1.0, 3.0)
            d = rng.uniform(0.0, 2.0)
            lats.append(
                PiecewiseLatency((0.0,), (c * link.slope,), (c * link.intercept + d,))
            )
        rate = rng.uniform(0.1, 2.0 * max(net.breakpoints[-1], 1.0))
        chk = continuity_no_improvement_check(net, lats, rate)
        assert chk.ok, (links, rate, chk)


def test_continuity_check_rejects_jump_at_equilibrium():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 0, "b": 1}])
    jumpy = PiecewiseLatency((0.0, 0.5), (1.0, 0.0), (0.0, 2.0))
    flat = PiecewiseLatency.from_affine(net.links[1])
    with pytest.raises(NotContinuousAtEquilibrium):
        continuity_no_improvement_check(net, [jumpy, flat], 1.0)


@pytest.mark.parametrize("step, continuous", [
    # A step up of 1e-11 of the value is no rounding of the two terms.
    (1e-11, False),
    # A dip that the latency's own construction accepts.
    (-_ROUNDING, True),
    # A dip of 1e-13 of the value is no rounding either: construction
    # refuses it.
    (-1e-13, None),
])
def test_continuity_check_reads_the_construction_dip(step, continuous):
    # The first latency steps by `step` at flow 1, where the equilibrium sits.
    if continuous is None:
        with pytest.raises(InvalidModelValue, match="value drops at boundary 1.0"):
            PiecewiseLatency((0.0, 1.0), (1.0, 1.0), (0.0, step))
        return
    net = normalize_network([{"a": 1, "b": 0}, {"a": 0, "b": 1}])
    stepped = PiecewiseLatency((0.0, 1.0), (1.0, 1.0), (0.0, step))
    flat = PiecewiseLatency.from_affine(net.links[1])
    if continuous:
        assert continuity_no_improvement_check(net, [stepped, flat], 1.0)
    else:
        with pytest.raises(NotContinuousAtEquilibrium):
            continuity_no_improvement_check(net, [stepped, flat], 1.0)


def test_underflowing_costs_raise_typed_error():
    tiny_gap = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1e-200}])
    with pytest.raises(CostUnderflow, match="demand 5e-201"):
        ratio_sup(tiny_gap)
    unit_gap = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}])
    with pytest.raises(CostUnderflow, match="demand 1e-170"):
        ratio_curve(unit_gap, None, [1e-170])
    # A subnormal optimal cost has lost its relative precision: at the
    # peak the rounded costs read a ratio of 2.
    with pytest.raises(CostUnderflow, match="1e-323 at demand 4.38"):
        ratio_sup(normalize_network(SUBNORMAL_OPT))


def test_overflowing_costs_raise_typed_error():
    # Past a demand of about 1e154 both costs overflow to inf, and their
    # ratio would be NaN, which no comparison in the supremum scan takes.
    far_gap = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1e160}])
    with pytest.raises(CostOverflow, match="demand 5e\\+159"):
        ratio_sup(far_gap)
    two = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
    with pytest.raises(CostOverflow, match="demand 1e\\+200"):
        ratio_curve(two, None, [1.0, 1e200])


@pytest.mark.parametrize("links,rate", [(OVERFLOWED_SUM, 1e30), *OVERFLOWED_EFFICIENCY])
def test_non_finite_optimal_cost_raises_overflow(links, rate):
    # The summed efficiency of the open links overflows: the pieces from
    # there on carry NaN, which is no cost.
    net = normalize_network(links)
    with pytest.raises(CostOverflow, match=re.escape(f"demand {rate!r}")):
        ratio_curve(net, None, [rate])
    with pytest.raises(CostOverflow):
        ratio_sup(net)


def test_optimal_cost_with_overflowing_intercept_spread():
    # Both costs at 1e30 are the exact costs rounded once; their ratio is
    # within an ulp of the exact 1.0008039390697412.  The supremum is 4/3.
    net = normalize_network(NEGATIVE_OPT)
    (sample,) = ratio_curve(net, None, [1e30])
    assert sample.cost_den == 3.448415894465519e-58
    assert sample.ratio == pytest.approx(1.0008039390697412, rel=2 * 2.0 ** -52)
    value, where = ratio_sup(net)
    assert value == pytest.approx(4.0 / 3.0, rel=4 * 2.0 ** -52)
    assert where == pytest.approx(3.21317e27, rel=1e-5)


def test_breakpoint_underflowing_to_zero_opens_no_piece():
    # The second link's breakpoint 1e-200 / 1e200 underflows to 0: the
    # pieces cover demands > 0 only, so none ends at 0.
    net = normalize_network([{"a": 1e200, "b": 0}, {"a": 1, "b": 1e-200}])
    assert all(p.hi > 0.0 for p in cost_pieces(net))
    assert 0.0 not in curve_breakpoints(net)
    assert ratio_sup(net) == (1.0, 1.0)
