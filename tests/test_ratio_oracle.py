"""Dense-grid oracle for ratio_sup.

The oracle evaluates the cost ratio with the flow solvers alone (nash_flow,
mn_flow, worst_equilibrium_cost over opt_flow) on a dense grid of
demands plus the structural marks read from the network and the mechanism
parameters.  Every sampled ratio is a value the supremum must reach.
"""

import math
import random

from anarchy import (
    build_plateau_mechanism,
    build_threshold_mechanism,
    mn_flow,
    nash_flow,
    normalize_network,
    opt_flow,
    profile_cost,
    ratio_sup,
    solve_plateau_params,
    worst_equilibrium_cost,
)
from anarchy.mechanisms import MIN_PLATEAU_RATIO, PlateauParams, ThresholdParams

GRID = 2000


def _num_cost(net, mech, r):
    if mech is None:
        return nash_flow(net, r).cost
    params, lats = mech
    if isinstance(params, ThresholdParams):
        return profile_cost(net.links, mn_flow(net, params, r).flows)
    return worst_equilibrium_cost(lats, r)


def _marks(net, mech):
    pts = set()
    for b in net.breakpoints[1:]:
        pts.update((b, b / 2.0))
    if mech is not None:
        params = mech[0]
        if isinstance(params, PlateauParams):
            pts.update((params.hold_start, params.jump_rate, params.resume_rate))
        else:
            pts.update(params.freeze_points)
    # Each mark and a demand just right of it, where a jump shows.
    return sorted(q for p in pts if math.isfinite(p) and p > 0.0
                  for q in (p, p * (1.0 + 1e-12)))


def _grid_max(net, mech, top):
    rates = [top * i / GRID for i in range(1, GRID + 1)] + _marks(net, mech)
    return max(_num_cost(net, mech, r) / opt_flow(net, r).cost for r in rates)


def _plain_instances(rng, count):
    for _ in range(count):
        k = rng.randint(2, 8)
        links = [{"a": rng.uniform(0.05, 5.0), "b": rng.uniform(0.0, 4.0)} for _ in range(k)]
        if rng.random() < 0.25:
            links.append({"a": 0.0, "b": max(l["b"] for l in links) + rng.uniform(0.01, 2.0)})
        yield normalize_network(links), None


def _threshold_instances(rng, count):
    # Efficiencies grow by up to 12x per link, so some links are
    # super-efficient for multipliers in [2, 8] and the mechanism freezes.
    for _ in range(count):
        k = rng.randint(2, 8)
        eff, links = 1.0, []
        for i in range(k):
            links.append({"a": 1.0 / eff, "b": i + rng.uniform(0.0, 0.9)})
            eff *= rng.uniform(1.0, 12.0)
        net = normalize_network(links)
        yield net, build_threshold_mechanism(net, [rng.uniform(2.0, 8.0) for _ in range(k - 1)])


def _plateau_instances(rng, count):
    for _ in range(count):
        R = rng.uniform(MIN_PLATEAU_RATIO, 200.0)
        a1 = rng.uniform(0.1, 5.0)
        net = normalize_network([{"a": a1, "b": 0.0}, {"a": a1 / R, "b": rng.uniform(0.01, 3.0)}])
        params = solve_plateau_params(net)
        yield net, (params, list(build_plateau_mechanism(net, params)))


def _check(instances):
    for net, mech in instances:
        last = max(net.breakpoints[-1], 1e-3)
        if mech is not None and isinstance(mech[0], PlateauParams):
            last = max(last, mech[0].resume_rate)
        top = 3.0 * last
        value, where = ratio_sup(net, mech)
        want = _grid_max(net, mech, top)
        assert value >= want - 1e-9, (net.to_json_dict(), value, where, want)


def test_ratio_sup_reaches_grid_max_plain():
    _check(_plain_instances(random.Random(71), 20))


def test_ratio_sup_reaches_grid_max_threshold():
    rng = random.Random(72)
    instances = list(_threshold_instances(rng, 20))
    assert sum(bool(mech[0].freeze_points) for _, mech in instances) >= 10
    _check(instances)


def test_ratio_sup_reaches_grid_max_plateau():
    _check(_plateau_instances(random.Random(73), 6))
