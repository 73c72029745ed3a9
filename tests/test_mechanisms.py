import json
import math
import random

from types import SimpleNamespace

import pytest

from anarchy import (
    AffineLatency,
    AnarchyError,
    BadParamCount,
    NotTwoLinks,
    ParamOutOfRange,
    ParamTooSmall,
    PiecewiseLatency,
    PlateauParams,
    RatioOutOfRange,
    SchemaError,
    build_plateau_mechanism,
    build_threshold_mechanism,
    is_user_equilibrium,
    mechanism_from_dict,
    mechanism_to_dict,
    mn_flow,
    mn_uses_links_no_earlier_than_opt,
    nash_flow,
    normalize_network,
    ratio_curve,
    ratio_sup,
    solve_plateau_params,
    water_fill,
)
from anarchy.cli import main
from anarchy.mechanisms import MIN_PLATEAU_RATIO, _hold_peak, _jump_peak
from conftest import random_network


# ------------------------------------------------------------------- threshold


def test_pigou_cap(pigou):
    params, lats = build_threshold_mechanism(pigou, [2.0])
    assert params.thresholds == (0.5, None)
    assert params.freeze_points == (0.5,)
    assert tuple(stage.start for stage in params.stages[1:]) == (1,)
    assert lats[0].cap == 0.5
    assert lats[1].cap == math.inf


def test_three_link_caps():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}, {"a": 0.01, "b": 2}])
    params, lats = build_threshold_mechanism(net, [4.0, 4.0])
    assert params.thresholds == pytest.approx((1.25, 0.25, None)) or params.thresholds[2] is None
    assert params.thresholds[0] == pytest.approx(1.25)
    assert params.thresholds[1] == pytest.approx(0.25)
    assert params.thresholds[2] is None
    assert params.freeze_points == pytest.approx((1.5,))
    assert tuple(stage.start for stage in params.stages[1:]) == (2,)


def test_benign_pair_stays_unmodified():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 0.5, "b": 1}])
    params, lats = build_threshold_mechanism(net, [4.0])  # efficiency 2 <= 4
    assert params.thresholds == (None, None)
    assert params.freeze_points == ()
    assert all(l.cap == math.inf for l in lats)


def test_two_stage_freeze_points_increase():
    net = normalize_network(
        [{"a": 1, "b": 0}, {"a": 0.01, "b": 1}, {"a": 0.0001, "b": 2}]
    )
    params, _ = build_threshold_mechanism(net, [2.0, 2.0])
    assert len(params.freeze_points) == 2
    assert params.freeze_points[0] < params.freeze_points[1]
    # second freeze when total demand is half the last link's breakpoint
    assert params.freeze_points == pytest.approx((0.5, 51.0))
    assert params.thresholds[1] == pytest.approx(50.5)
    assert tuple(stage.start for stage in params.stages[1:]) == (1, 2)


def test_threshold_marks_end_each_stage():
    net = normalize_network(
        [{"a": 1, "b": 0}, {"a": 0.01, "b": 1}, {"a": 0.0001, "b": 2}]
    )
    params, _ = build_threshold_mechanism(net, [2.0, 2.0])
    assert params.marks == ((params.freeze_points[0], True, "stage0"),
                            (params.freeze_points[1], True, "stage1"),
                            (math.inf, True, "stage2"))


def test_threshold_parameter_validation(pigou):
    with pytest.raises(BadParamCount):
        build_threshold_mechanism(pigou, [2.0, 2.0])
    with pytest.raises(ParamTooSmall):
        build_threshold_mechanism(pigou, [1.5])


def test_mn_flow_matches_nash_below_freeze(pigou):
    params, _ = build_threshold_mechanism(pigou, [2.0])
    for rate in (0.0, 0.2, 0.5):
        assert mn_flow(pigou, params, rate).flows == nash_flow(pigou, rate).profile.flows


def test_mn_flow_is_equilibrium_seeded():
    rng = random.Random(77)
    for _ in range(60):
        net = random_network(rng, kmax=6, allow_flat=True)
        if net.k < 2:
            continue
        R = [rng.uniform(2.0, 8.0) for _ in range(net.k - 1)]
        params, lats = build_threshold_mechanism(net, R)
        span = net.breakpoints[-1] + sum(params.freeze_points) + 1.0
        for _ in range(4):
            rate = rng.uniform(0.0, 3.0 * span)
            prof = mn_flow(net, params, rate)
            check = is_user_equilibrium(lats, prof)
            assert check, (net.to_json_dict(), R, rate, check.violator)


def _threshold_instances(rng):
    # One rate an ulp above the second freeze point once went to stage 1.
    yield (normalize_network([
        {"a": 6.76864638324956, "b": 0},
        {"a": 1.2725182035795188, "b": 0.27741912543487923},
        {"a": 0.12992632503245596, "b": 1.0751116566651102},
    ]), [3.890794643031237, 4.985793238188558])
    for _ in range(80):
        net = random_network(rng, kmax=6, allow_flat=True)
        if net.k >= 2:
            yield net, [rng.uniform(2.0, 8.0) for _ in range(net.k - 1)]


def test_mn_flow_stage_matches_curve_regime():
    rng = random.Random(4242)
    checked = 0
    for net, R in _threshold_instances(rng):
        params, lats = build_threshold_mechanism(net, R)
        for point in params.freeze_points:
            for rate in (math.nextafter(point, 0.0), point, math.nextafter(point, math.inf)):
                regime = ratio_curve(net, (params, lats), [rate])[0].regime
                idx = int(regime.split("/")[0][len("stage"):])
                stage = params.stages[idx]
                inner = nash_flow(stage.segment, rate - stage.global_start_rate).profile.flows
                padding = [0.0] * (net.k - stage.start - len(inner))
                want = [*params.thresholds[:stage.start], *inner, *padding]
                assert mn_flow(net, params, rate).flows == tuple(want), (
                    net.to_json_dict(), R, rate, regime)
                checked += 1
    assert checked >= 100


def _planted_chain(rng):
    # Intercepts rise and each link is 1.5 to 12 times as efficient as the
    # one before, so multipliers in [2, 6] trigger at some links only.
    k = rng.randint(2, 7)
    links, a, b = [], rng.uniform(0.5, 5.0), 0.0
    for _ in range(k):
        links.append({"a": a, "b": b})
        a /= rng.uniform(1.5, 12.0)
        b += rng.uniform(0.1, 3.0)
    return normalize_network(links), [rng.uniform(2.0, 6.0) for _ in range(k - 1)]


def test_threshold_build_matches_brute_force_on_planted_chains():
    rng = random.Random(2718)
    frozen_stages = 0
    for _ in range(150):
        net, R = _planted_chain(rng)
        params, lats = build_threshold_mechanism(net, R)
        triggers = [t for t in range(1, net.k)
                    if net.efficiency[t] > R[t - 1] * sum(net.efficiency[:t])]
        case = (net.to_json_dict(), R)
        want = [None] * net.k
        start, start_rate = 0, 0.0
        for t in triggers:
            freeze = net.breakpoints[t] / 2.0
            suffix = normalize_network(net.links[start:])
            caps = nash_flow(suffix, freeze - start_rate).profile.flows
            want[start:t] = caps[:t - start]
            # The stage freezes before link t opens in the suffix, so a
            # segment that ends at t splits the demand as the suffix does.
            assert freeze - start_rate < suffix.breakpoints[t - start], case
            start, start_rate = t, freeze
        assert params.freeze_points == tuple(net.breakpoints[t] / 2.0 for t in triggers), case
        assert params.thresholds == tuple(want), case
        assert [s.start for s in params.stages] == [0, *triggers], case
        assert [s.global_start_rate for s in params.stages] == [0.0, *params.freeze_points], case
        ends = [*triggers[1:], net.k]
        assert [s.segment for s in params.stages[1:]] == [
            net.segment(t, end) for t, end in zip(triggers, ends)], case
        assert params.stages[0].segment is net, case
        assert [lat.cap for lat in lats] == [math.inf if c is None else c for c in want], case
        frozen_stages += len(triggers)
    assert frozen_stages >= 100


def test_all_trigger_chain_stages_hold_their_own_links(tmp_path):
    # The all-trigger chain: every link of a_t = 3.5^-(t - k/2), b_t = t
    # triggers at R = 2.  Stage 0 keeps the network; each later stage keeps
    # only its own links, so the build stays linear in k.
    k = 400
    links = [{"a": 3.5 ** -(t - k / 2), "b": float(t)} for t in range(k)]
    net = normalize_network(links)
    params, _ = build_threshold_mechanism(net, [2.0] * (k - 1))
    starts = [s.start for s in params.stages]
    assert starts == list(range(k))
    assert params.stages[0].segment is net
    sizes = [s.segment.k for s in params.stages[1:]]
    assert sizes == [end - start for start, end in zip(starts[1:], [*starts[2:], k])]
    assert sum(sizes) == k - starts[1]
    assert mn_uses_links_no_earlier_than_opt(net, params)
    # The command line solves and sweeps it too.
    net_path, mech_path = tmp_path / "chain.json", tmp_path / "mech.json"
    net_path.write_text(json.dumps({"links": links}))
    mech_path.write_text(json.dumps({"kind": "threshold", "R": [2] * (k - 1)}))
    mech = ["--mechanism", str(mech_path)]
    assert main(["solve", str(net_path), "--rate", "1", "--which", "mn", *mech]) == 0
    assert main(["curve", str(net_path), "--csv", str(tmp_path / "chain.csv"), *mech]) == 0


def test_usage_order_rejects_a_start_below_its_rounding():
    # Freeze points 0.5 and 11.0 meet the optimum's opening rates to the bit;
    # a stage that starts 1e-11 of its rate sooner opens its link too early.
    net = normalize_network([{"a": 1, "b": 0}, {"a": 0.05, "b": 1}, {"a": 0.001, "b": 2}])
    params, _ = build_threshold_mechanism(net, [2.0, 2.0])
    assert params.freeze_points == (0.5, 11.0)
    assert mn_uses_links_no_earlier_than_opt(net, params)
    first, stage, *rest = params.stages
    early = stage._replace(global_start_rate=stage.global_start_rate * (1.0 - 1e-11))
    check = mn_uses_links_no_earlier_than_opt(net, params._replace(stages=(first, early, *rest)))
    assert not check
    assert check.link == 1


def test_usage_order_seeded():
    rng = random.Random(31)
    for _ in range(60):
        net = random_network(rng, kmax=6, allow_flat=True)
        if net.k < 2:
            continue
        R = [rng.uniform(2.0, 10.0) for _ in range(net.k - 1)]
        params, _ = build_threshold_mechanism(net, R)
        check = mn_uses_links_no_earlier_than_opt(net, params)
        assert check, (net.to_json_dict(), R, check.link)


# --------------------------------------------------------------------- plateau


def test_solve_plateau_at_ratio_two():
    net = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
    params = solve_plateau_params(net)
    r2 = net.breakpoints[1]
    assert params.hold_start / r2 == pytest.approx(0.9826357450601995, rel=1e-9)
    assert params.jump_rate / r2 == pytest.approx(1.3900759927726778, rel=1e-9)
    assert params.hold_start == pytest.approx(0.49131787253009973, rel=1e-9)
    assert params.resume_rate == pytest.approx(params.jump_rate - params.hold_start + params.hold_end)


def test_plateau_peaks_balanced():
    for ratio in (2.0, 3.0, 10.0):
        net = normalize_network([{"a": ratio, "b": 0}, {"a": 1, "b": 1}])
        params = solve_plateau_params(net)
        alpha = params.hold_start / net.breakpoints[1]
        hp = _hold_peak(ratio, alpha)
        jp = _jump_peak(ratio, math.sqrt(ratio), alpha)
        assert max(hp, jp) <= 1.192 + 1e-9
        assert hp == pytest.approx(jp, abs=1e-9) or hp <= jp  # balanced or seed-capped


@pytest.mark.parametrize("a2", [2e-120, 1e-300])
def test_solve_plateau_refuses_ratios_whose_peaks_overflow(a2):
    # Slope ratios 1e120 and 2e300: the jump peak's R^3 terms overflow, so
    # the bisection would steer on NaN, and alpha0 itself overflows at 2e300.
    net = normalize_network([{"a": 2, "b": 0}, {"a": a2, "b": 1}])
    with pytest.raises(RatioOutOfRange, match="overflow"):
        solve_plateau_params(net)


def test_solve_plateau_below_overflowing_ratios():
    net = normalize_network([{"a": 2, "b": 0}, {"a": 2e-100, "b": 1}])
    params = solve_plateau_params(net)
    assert 0.5 <= params.hold_start / net.breakpoints[1] <= 1.0
    assert math.isfinite(params.hold_end) and math.isfinite(params.jump_rate)


def test_closed_form_seed_hits_target():
    # the alpha0 seed makes the pre-opening peak exactly 1.192
    for ratio in (2.0, 2.5, 5.0, 50.0):
        alpha0 = (149.0 * ratio + 2.0 * math.sqrt(894.0 * ratio * (ratio + 1.0))) / (
            2.0 * (125.0 * ratio - 24.0)
        )
        assert _hold_peak(ratio, alpha0) == pytest.approx(1.192, abs=1e-12)


def test_plateau_latency_shape():
    net = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
    params = solve_plateau_params(net)
    lat1, lat2 = build_plateau_mechanism(net, params)
    assert len(lat1.starts) == 3
    assert lat1.slopes[1] == 0.0
    # jump onto the plateau at hold_start, continuity at hold_end
    assert lat1.value(params.hold_start) == pytest.approx(2 * params.hold_start)
    plateau_value = 2 * params.hold_end
    assert lat1.right_liminf(params.hold_start) == pytest.approx(plateau_value)
    assert lat1.value(params.hold_end) == pytest.approx(plateau_value)
    assert lat1.right_liminf(params.hold_end) == pytest.approx(plateau_value)
    # second link untouched
    assert len(lat2.starts) == 1
    # modification never undercuts the original latency
    assert lat1.dominates(net.links[0])


def test_plateau_marks_name_its_regions():
    net = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
    params = solve_plateau_params(net)
    assert params.marks == ((params.hold_start, True, "pre"), (params.jump_rate, True, "hold"),
                            (params.resume_rate, False, "jump"), (math.inf, False, "post"))


def test_plateau_hold_end_below_hold_start():
    # hold_start lies past r2 within the marks' slack, hold_end at r2 itself.
    net = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
    r2 = net.breakpoints[1]
    with pytest.raises(ParamOutOfRange, match="hold_end must be >= hold_start"):
        PlateauParams.from_flows(net, r2 * (1 + 5e-10), r2)


def test_plateau_identity_below_min_ratio():
    net = normalize_network([{"a": 1.5, "b": 0}, {"a": 1, "b": 1}])
    params = PlateauParams.from_flows(net, 0.8 * net.breakpoints[1], 2 * net.breakpoints[1])
    lat1, lat2 = build_plateau_mechanism(net, params)
    assert len(lat1.starts) == 1
    with pytest.raises(RatioOutOfRange):
        solve_plateau_params(net)
    assert 1.5 < MIN_PLATEAU_RATIO


def test_plateau_validation():
    net = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
    r2 = net.breakpoints[1]
    with pytest.raises(ParamOutOfRange):
        PlateauParams.from_flows(net, 0.3 * r2, r2)  # hold starts too early
    with pytest.raises(ParamOutOfRange):
        PlateauParams.from_flows(net, 0.9 * r2, 0.5 * r2)  # exits before breakpoint
    for mark in (math.inf, math.nan):
        with pytest.raises(ParamOutOfRange):
            PlateauParams.from_flows(net, 0.9 * r2, mark)
    three = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}, {"a": 1, "b": 2}])
    with pytest.raises(NotTwoLinks):
        solve_plateau_params(three)
    flat = normalize_network([{"a": 2, "b": 0}, {"a": 0, "b": 1}])
    with pytest.raises(ParamOutOfRange):
        solve_plateau_params(flat)
    other = normalize_network([{"a": 5, "b": 0}, {"a": 1, "b": 1}])
    params = solve_plateau_params(other)
    low = normalize_network([{"a": 1.5, "b": 0}, {"a": 1, "b": 1}])
    for target in (net, low):  # low: a slope ratio below 96/53
        with pytest.raises(ParamOutOfRange):
            build_plateau_mechanism(target, params)


def test_plateau_refuses_a_slope_ratio_past_its_rounding():
    net = normalize_network([{"a": 5, "b": 0}, {"a": 1, "b": 1}])
    params = solve_plateau_params(net)
    build_plateau_mechanism(net, params)
    off = params._replace(slope_ratio=params.slope_ratio * (1.0 + 1e-12))
    with pytest.raises(ParamOutOfRange, match="different network"):
        build_plateau_mechanism(net, off)


def test_plateau_params_build_on_a_rescaled_copy():
    # Scaling both slopes by 10^u moves their quotient by at most 2 ulps.
    rng = random.Random(17)
    for _ in range(3000):
        a1, R, b2 = rng.uniform(0.1, 5.0), rng.uniform(MIN_PLATEAU_RATIO, 200.0), rng.uniform(0.01, 3.0)
        params = solve_plateau_params(normalize_network([{"a": a1, "b": 0}, {"a": a1 / R, "b": b2}]))
        c = 10.0 ** rng.uniform(-6.0, 6.0)
        copy = normalize_network([{"a": a1 * c, "b": 0}, {"a": a1 / R * c, "b": b2}])
        build_plateau_mechanism(copy, params)


# ----------------------------------------------------------------- persistence


def test_threshold_round_trip(pigou):
    params, _ = build_threshold_mechanism(pigou, [2.0])
    blob = mechanism_to_dict(params)
    assert blob == {"kind": "threshold", "R": [2.0]}
    rebuilt, lats = mechanism_from_dict(pigou, blob)
    assert rebuilt.thresholds == params.thresholds
    assert lats[0].cap == 0.5


def test_plateau_round_trip():
    net = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
    params = solve_plateau_params(net)
    blob = mechanism_to_dict(params)
    rebuilt, lats = mechanism_from_dict(net, blob)
    assert rebuilt.jump_rate == pytest.approx(params.jump_rate, rel=1e-12)
    assert len(lats[0].starts) == 3


def test_plateau_from_dict_solves_when_marks_missing():
    net = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
    params, _ = mechanism_from_dict(net, {"kind": "plateau"})
    assert params.hold_start / net.breakpoints[1] == pytest.approx(0.9826357450601995, rel=1e-9)


def test_mechanism_from_dict_rejects_unknown(pigou):
    with pytest.raises(SchemaError):
        mechanism_from_dict(pigou, {"kind": "tolls"})
    with pytest.raises(SchemaError):
        mechanism_from_dict(pigou, {"R": [2.0]})
    with pytest.raises(SchemaError):
        mechanism_from_dict(pigou, {"kind": "threshold"})


# ------------------------------------------------------------- mismatched input

# A plateau mechanism for two links, and threshold mechanisms built for two
# and for three links, each read with the other network.
_NET2 = normalize_network([{"a": 1, "b": 0}, {"a": 0.1, "b": 1}])
_NET3 = normalize_network([{"a": 1, "b": 0}, {"a": 0.1, "b": 1}, {"a": 0.001, "b": 5}])
_PLATEAU = solve_plateau_params(_NET2)
_LATS = build_plateau_mechanism(_NET2, _PLATEAU)
_T2 = build_threshold_mechanism(_NET2, [2.0])
_T3 = build_threshold_mechanism(_NET3, [2.0, 2.0])
_AFFINE = [AffineLatency(1.0, 0.0)] * 2
# _NET2's links raised: no modification of them can dominate these.
_HEAVY2 = normalize_network([{"a": 5, "b": 0}, {"a": 0.1, "b": 3}])


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: ratio_sup(_NET2, _PLATEAU), SchemaError, id="sup-bare-params"),
    pytest.param(lambda: ratio_sup(_NET2, _T2[0]), SchemaError, id="sup-bare-threshold-params"),
    pytest.param(lambda: ratio_curve(_NET2, _PLATEAU, [1.0]), SchemaError, id="curve-bare-params"),
    pytest.param(lambda: ratio_sup(_NET2, _LATS), SchemaError, id="sup-latencies-alone"),
    pytest.param(lambda: ratio_sup(_NET2, (_LATS, _PLATEAU)), SchemaError, id="sup-swapped"),
    pytest.param(lambda: ratio_sup(_NET2, (None, _LATS)), SchemaError, id="sup-no-params"),
    pytest.param(lambda: ratio_sup(_NET2, (_PLATEAU, 1.0)), SchemaError, id="sup-latencies-not-iterable"),
    pytest.param(lambda: ratio_sup(_NET2, (_PLATEAU, _AFFINE)), SchemaError, id="sup-affine"),
    pytest.param(lambda: water_fill(_AFFINE[:1], 1.0), SchemaError, id="water_fill-affine"),
    pytest.param(lambda: ratio_sup(_HEAVY2, (_PLATEAU, _LATS)), ParamOutOfRange,
                 id="sup-plateau-under-heavier-links"),
    pytest.param(lambda: ratio_sup(_NET2, (_PLATEAU, _LATS[:1])), BadParamCount, id="sup-one-latency"),
    pytest.param(lambda: ratio_sup(_NET2, (_PLATEAU, [*_LATS, _LATS[1]])), BadParamCount,
                 id="sup-three-latencies"),
    pytest.param(lambda: ratio_sup(_NET3, _T2), BadParamCount, id="sup-threshold-2-on-3"),
    pytest.param(lambda: mn_flow(_NET3, _T2[0], 5.0), BadParamCount, id="mn_flow-2-on-3"),
    pytest.param(lambda: mn_flow(_NET2, _T3[0], 5.0), BadParamCount, id="mn_flow-3-on-2"),
    pytest.param(lambda: mn_uses_links_no_earlier_than_opt(_NET3, _T2[0]), BadParamCount,
                 id="usage-2-on-3"),
    pytest.param(lambda: mn_uses_links_no_earlier_than_opt(_NET2, _T3[0]), BadParamCount,
                 id="usage-3-on-2"),
    pytest.param(lambda: mn_flow(_NET2, _PLATEAU, 1.0), SchemaError, id="mn_flow-plateau"),
    pytest.param(lambda: mn_uses_links_no_earlier_than_opt(_NET2, _PLATEAU), SchemaError,
                 id="usage-plateau"),
    pytest.param(lambda: build_plateau_mechanism(_NET2, _T2[0]), SchemaError,
                 id="build_plateau-threshold-params"),
    pytest.param(lambda: mechanism_to_dict(None), SchemaError, id="to_dict-none"),
])
def test_mismatched_mechanism_raises_typed_error(call, error):
    # A mechanism or latency list that does not fit the network, or
    # parameters of the wrong kind, raise a typed error, never an untyped
    # one or a number.
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, AnarchyError)


def test_parameters_with_marks_are_accepted():
    # Any parameters carrying marks cut the sweep: one mark at inf reads
    # the whole equilibrium cost as one regime.
    stub = SimpleNamespace(marks=((math.inf, False, "eq"),))
    lats = [PiecewiseLatency.from_affine(link) for link in _NET2.links]
    value, _ = ratio_sup(_NET2, (stub, lats))
    assert value == pytest.approx(ratio_sup(_NET2)[0], rel=1e-12)


@pytest.mark.parametrize("intercept, refused", [
    (1.0 - 1e-11, True),
    (math.nextafter(1.0, 0.0), False),
    (1.0, False),
])
def test_mechanism_latency_must_dominate_its_link(intercept, refused):
    # _NET2's second link is {a: 0.1, b: 1}; a latency below it by 1e-11 of
    # its value is no modification of it, one within the rounding allowance is.
    lats = [_LATS[0], PiecewiseLatency.from_affine(AffineLatency(0.1, intercept))]
    if refused:
        with pytest.raises(ParamOutOfRange, match="latency 1"):
            ratio_sup(_NET2, (_PLATEAU, lats))
    else:
        value, _ = ratio_sup(_NET2, (_PLATEAU, lats))
        assert value == pytest.approx(ratio_sup(_NET2, (_PLATEAU, _LATS))[0], rel=1e-9)
