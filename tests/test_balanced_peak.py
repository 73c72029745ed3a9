"""The plateau marks and the two-link lower bound come from one balanced-peak solve."""

import hashlib
import math
import random

import pytest

import anarchy.mechanisms as mechanisms
from anarchy import (
    RatioOutOfRange,
    build_plateau_mechanism,
    lower_bound_value,
    normalize_network,
    ratio_sup,
    solve_plateau_params,
)
from anarchy.mechanisms import (
    _GAP_BAND_ULPS,
    MIN_PLATEAU_RATIO,
    _gap_bracket,
    _hold_peak,
    _jump_peak,
    _peak_gap,
    balanced_alpha,
)

SLOPE_RATIOS = [2.0 + 2.0 * i / 40 for i in range(41)]


def _grid_golden_lower_bound(R):
    # Independent oracle: the hold and jump peaks written from the costs of
    # the family, minimized over the hold flow by a 512-point scan and a
    # golden-section search around its best point.
    def opt_cost(x):
        return x * x if x <= 0.5 else (x * x + R * x - R / 4.0) / (1.0 + R)

    def jump_rate(x1):
        root = math.sqrt(R * R + 4.0 * R * R * x1 - 4.0 * R * x1 * x1)
        return max(1.0, (R + root) / (4.0 * x1))

    def worst(x1):
        rs = jump_rate(x1)
        jump = 4.0 * rs * (R + 1.0) * (rs - x1 + R) / (R * (4.0 * rs * rs + 4.0 * R * rs - R))
        return max(x1 * x1 / opt_cost(x1), jump)

    xs = [0.5 + 0.5 * i / 511 for i in range(512)]
    best = min(range(512), key=lambda i: worst(xs[i]))
    a, b = xs[max(0, best - 1)], xs[min(511, best + 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        c, d = b - phi * (b - a), a + phi * (b - a)
        if worst(c) < worst(d):
            b = d
        else:
            a = c
        if b - a < 1e-15:
            break
    x1 = 0.5 * (a + b)
    return min(1.2, worst(x1)), x1, jump_rate(x1)


@pytest.mark.parametrize("R", SLOPE_RATIOS)
def test_lower_bound_matches_grid_golden_oracle(R):
    rep = lower_bound_value(R)
    value, x1, jump_rate = _grid_golden_lower_bound(R)
    assert rep.value == pytest.approx(value, rel=1e-12)
    assert rep.details["x1"] == pytest.approx(x1, abs=1e-9)
    assert rep.details["jump_rate"] == pytest.approx(jump_rate, abs=1e-9)


@pytest.mark.parametrize("R", SLOPE_RATIOS)
def test_lower_bound_is_the_plateau_sup(R):
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1 / R, "b": 1}])
    params = solve_plateau_params(net)
    sup, _ = ratio_sup(net, (params, build_plateau_mechanism(net, params)))
    assert lower_bound_value(R).value == pytest.approx(sup, rel=1e-12)


def test_plateau_marks_unchanged_by_shared_solve():
    # Digest of the marks solve_plateau_params gave for these instances with
    # its own copy of the bisection; the shared solve must reproduce them bit
    # for bit.  Every step is IEEE arithmetic or sqrt, so no platform differs.
    rng = random.Random(2012)
    rows = []
    for _ in range(300):
        a2 = rng.uniform(0.05, 4.0)
        R = 1.82 + 198.0 * rng.random() ** 2  # in (96/53, 200)
        b2 = rng.uniform(0.05, 4.0)
        net = normalize_network([{"a": R * a2, "b": 0.0}, {"a": a2, "b": b2}])
        params = solve_plateau_params(net)
        rows.append(f"{params.hold_start!r} {params.hold_end!r}")
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "ad8b186805d670746548fca4a7718a3cb10577e43ba6ee3fed0c663797799daf"


def _alpha0(R):
    return (149.0 * R + 2.0 * math.sqrt(894.0 * R * (R + 1.0))) / (2.0 * (125.0 * R - 24.0))


def reference_balanced_alpha(R):
    """The plain bisection of the peak gap from [1/2, alpha0] down to
    adjacent doubles, over the hold and jump peaks."""
    root_R = math.sqrt(R)

    def gap(alpha):
        return _hold_peak(R, alpha) - _jump_peak(R, root_R, alpha)

    lo, hi = 0.5, _alpha0(R)
    at_lo = gap(lo)
    if not math.isfinite(at_lo):
        raise RatioOutOfRange(f"slope ratio {R} is too large: the plateau peaks overflow")
    if gap(hi) < 0.0:
        return hi
    if at_lo > 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _plateau_ratios(seed, n):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        R = rng.uniform(MIN_PLATEAU_RATIO, 200.0)
        if R > MIN_PLATEAU_RATIO:
            out.append(R)
    return out


def _log_sweep():
    # From 200 past the ratio where the peaks overflow, about 2.4e102.
    return [200.0 * 10.0 ** (i / 20) for i in range(2100)]


def test_balanced_alpha_matches_reference_bisection():
    for R in _plateau_ratios(21, 20000):
        assert balanced_alpha(R) == reference_balanced_alpha(R), R
    refused = 0
    for R in _log_sweep():
        try:
            want = reference_balanced_alpha(R)
        except RatioOutOfRange:
            with pytest.raises(RatioOutOfRange):
                balanced_alpha(R)
            refused += 1
            continue
        assert balanced_alpha(R) == want, R
    assert 0 < refused < 200


def test_balanced_alpha_gap_evaluations(monkeypatch):
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return _peak_gap(*args)

    monkeypatch.setattr(mechanisms, "_peak_gap", counted)
    counts = []
    for R in _plateau_ratios(22, 3000):
        count = 0
        balanced_alpha(R)
        counts.append(count)
    assert max(counts) <= 40
    assert sorted(counts)[len(counts) // 2] <= 24
    # Above 200 the band widens with R; past it the replay is the plain
    # bisection, which takes 53 or 54 calls, and the secant is skipped.
    for R in _log_sweep()[::10]:
        count = 0
        try:
            balanced_alpha(R)
        except RatioOutOfRange:
            continue
        assert count <= 54, R


def _gap_sign_below(R, alpha):
    return _peak_gap(R, math.sqrt(R), alpha) < 0.0


def test_gap_sign_is_known_outside_the_evaluated_band():
    # The replay evaluates the gap only within the band around the secant's
    # bracket.  Just outside it the float sign must already be the one the
    # bisection assumes, and the zone of mixed signs around the answer must
    # be no wider than the band.
    widest = 0
    for R in _plateau_ratios(24, 2000):
        root_R, alpha0 = math.sqrt(R), _alpha0(R)
        at_lo, at_hi = _peak_gap(R, root_R, 0.5), _peak_gap(R, root_R, alpha0)
        if at_hi < 0.0 or at_lo > 0.0:
            continue
        band = _GAP_BAND_ULPS * math.ulp(alpha0)
        lo, hi = _gap_bracket(R, root_R, 0.5, at_lo, alpha0, at_hi, max(1e-12 * alpha0, band))
        below, above = lo - band, hi + band
        for _ in range(64):
            below = math.nextafter(below, -math.inf)
            above = math.nextafter(above, math.inf)
            assert _gap_sign_below(R, below) and not _gap_sign_below(R, above), R
        alpha, step = balanced_alpha(R), math.ulp(alpha0)
        signs = [_gap_sign_below(R, alpha + i * step) for i in range(-64, 65)]
        assert signs[0] and not signs[-1], R
        last_below = max(i for i, s in enumerate(signs) if s)
        first_above = min(i for i, s in enumerate(signs) if not s)
        widest = max(widest, last_below - first_above + 1)
    assert widest <= _GAP_BAND_ULPS
