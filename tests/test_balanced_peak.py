"""The plateau marks and the two-link lower bound come from one balanced-peak solve."""

import hashlib
import math
import random
from fractions import Fraction

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
    MIN_PLATEAU_RATIO,
    _hold_peak,
    _jump_peak,
    _peak_gap,
    _past_root,
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
    # Digest of the marks solve_plateau_params gives for these instances
    # from the correctly rounded balance; they must stay bit for bit.  Every
    # step is IEEE arithmetic, sqrt or integer arithmetic, so no platform
    # differs.
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
    assert digest == "7abaa7089492e78f6b6e11c5621d32935b5e4a656aec7115ba14345740f92273"


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


def _sextic(R):
    """The balance's sextic in alpha, from alpha^6 down:
    16a^6 + 32R^2 a^5 + (16R^4 + 16R^3 - 48R^2 - 8R) a^4
    - (32R^4 + 24R^3 - 8R^2) a^3 + (24R^4 + 12R^3 + R^2) a^2
    - (8R^4 + 2R^3) a + R^4, the hold peak = jump peak equation with the
    square root cleared."""
    R = Fraction(R)
    R2 = R * R
    R3, R4 = R2 * R, R2 * R2
    return (16, 32 * R2, 16 * R4 + 16 * R3 - 48 * R2 - 8 * R, -(32 * R4 + 24 * R3 - 8 * R2),
            24 * R4 + 12 * R3 + R2, -(8 * R4 + 2 * R3), R4)


def _below(coefficients, alpha):
    value = Fraction(0)
    for c in coefficients:
        value = value * alpha + c
    return value < 0


def _correctly_rounded(R, alpha):
    # Below 0 at the halfway point under alpha (or at 1/2 itself), at least
    # 0 at the one above it.
    sextic, x = _sextic(R), Fraction(alpha)
    below = (x + Fraction(math.nextafter(alpha, 0.0))) / 2
    above = (x + Fraction(math.nextafter(alpha, 2.0))) / 2
    return _below(sextic, max(Fraction(1, 2), below)) and not _below(sextic, above)


def _peaks_overflow(R):
    root_R = math.sqrt(R)
    return not math.isfinite(_hold_peak(R, 0.5) - _jump_peak(R, root_R, 0.5))


def test_balanced_alpha_is_correctly_rounded():
    for R in _plateau_ratios(21, 20000):
        assert _correctly_rounded(R, balanced_alpha(R)), R
    refused = 0
    for R in _log_sweep():
        if _peaks_overflow(R):
            with pytest.raises(RatioOutOfRange):
                balanced_alpha(R)
            refused += 1
            continue
        assert _correctly_rounded(R, balanced_alpha(R)), R
    assert 0 < refused < 200


def test_balanced_alpha_is_the_peaks_balance():
    # The sextic's root is where the two peaks meet, to the peaks' own rounding.
    for R in SLOPE_RATIOS + _plateau_ratios(21, 20000):
        alpha = balanced_alpha(R)
        hold = _hold_peak(R, alpha)
        assert abs(hold - _jump_peak(R, math.sqrt(R), alpha)) <= 8 * math.ulp(hold), R


# The paper's balanced value: R* is the root of
# 324R^6 - 756R^5 - 252R^4 + 1177R^3 - 428R^2 - 444R - 64 near 2.097, where
# the balanced peak reaches its largest value V* (to 22 digits, from a
# 50-digit evaluation).
R_STAR = 2.0971634026632358
V_STAR = Fraction("1.1919531395180097924982")


def _paper_poly(R):
    value = Fraction(0)
    for c in (324, -756, -252, 1177, -428, -444, -64):
        value = value * R + c
    return value


def test_paper_value_is_a_known_answer():
    # R_STAR is the double nearest R*: the polynomial changes sign between
    # the halfway points around it.
    x = Fraction(R_STAR)
    below = (x + Fraction(math.nextafter(R_STAR, 0.0))) / 2
    above = (x + Fraction(math.nextafter(R_STAR, 3.0))) / 2
    assert _paper_poly(below) * _paper_poly(above) < 0
    assert Fraction("1.191") < V_STAR < Fraction("1.192")
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1 / R_STAR, "b": 1}])
    params = solve_plateau_params(net)
    sup, _ = ratio_sup(net, (params, build_plateau_mechanism(net, params)))
    ulp = Fraction(math.ulp(float(V_STAR)))
    for value in (lower_bound_value(R_STAR).value, sup):
        assert abs(Fraction(value) - V_STAR) <= 4 * ulp, value


def test_balanced_alpha_gap_evaluations(monkeypatch):
    gaps = signs = 0

    def counted_gap(*args):
        nonlocal gaps
        gaps += 1
        return _peak_gap(*args)

    def counted_sign(*args):
        nonlocal signs
        signs += 1
        return _past_root(*args)

    monkeypatch.setattr(mechanisms, "_peak_gap", counted_gap)
    monkeypatch.setattr(mechanisms, "_past_root", counted_sign)
    counts = []
    for R in _plateau_ratios(22, 3000):
        gaps = signs = 0
        balanced_alpha(R)
        counts.append((gaps, signs))
    gap_counts, sign_counts = sorted(g for g, _ in counts), sorted(s for _, s in counts)
    # Measured: medians 12 and 6, largest 25 and 26.
    assert gap_counts[len(counts) // 2] <= 14 and gap_counts[-1] <= 30
    assert sign_counts[len(counts) // 2] <= 8 and sign_counts[-1] <= 30
    # Above 200 the float secant's bracket drifts from the root, so the
    # gallop runs further; the secant stops after 64 steps.
    for R in _log_sweep()[::10]:
        gaps = signs = 0
        try:
            balanced_alpha(R)
        except RatioOutOfRange:
            continue
        assert gaps <= 48 and signs <= 60, R  # measured: 42 and 52
