"""The plateau marks and the two-link lower bound come from one balanced-peak solve."""

import hashlib
import math
import random

import pytest

from anarchy import (
    build_plateau_mechanism,
    lower_bound_value,
    normalize_network,
    ratio_sup,
    solve_plateau_params,
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
