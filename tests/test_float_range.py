"""Plain costs and ratios on networks whose coefficients span the float range.

An affine network's selfish cost is at most 4/3 of the optimal cost, and
both costs are finite and non-negative.  Near the ends of the float range a
result may instead be a typed error, but never a value that breaks these
bounds.
"""

import math
import random

from anarchy import AnarchyError, nash_flow, normalize_network, opt_flow, ratio_sup

# Rounding of a few ulps in either cost.
RATIO_RTOL = 1e-12


def _draws(rng, count, decades):
    # Up to six links with slopes and intercepts log-uniform in
    # 10^±decades, about a fifth of the intercepts 0, and one log-uniform
    # demand per network.
    def coefficient():
        return 10.0 ** rng.uniform(-decades, decades)

    for _ in range(count):
        k = rng.randint(1, 6)
        links = [{"a": coefficient(), "b": 0.0 if rng.random() < 0.2 else coefficient()}
                 for _ in range(k)]
        yield links, coefficient()


def test_plain_costs_and_ratios_stay_in_bounds():
    rng = random.Random(1)
    faults = []
    for decades in (150, 300):
        for links, rate in _draws(rng, 1500, decades):
            try:
                net = normalize_network(links)
            except AnarchyError:
                continue
            try:
                value, where = ratio_sup(net)
            except AnarchyError:
                pass
            else:
                if not 1.0 - RATIO_RTOL <= value <= 4.0 / 3.0 * (1.0 + RATIO_RTOL):
                    faults.append(("ratio_sup", links, value, where))
            for solve in (nash_flow, opt_flow):
                try:
                    cost = solve(net, rate).cost
                except AnarchyError:
                    continue
                if not (math.isfinite(cost) and cost >= 0.0):
                    faults.append((solve.__name__, links, rate, cost))
    assert not faults, (len(faults), faults[:3])
