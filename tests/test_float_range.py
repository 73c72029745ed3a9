"""Plain costs and ratios on networks whose coefficients span the float range.

An affine network's selfish cost is at most 4/3 of the optimal cost, and
both costs are finite and non-negative.  Near the ends of the float range a
result may instead be a typed error, but never a value that breaks these
bounds, nor an exception that is not an AnarchyError.
"""

import math
import random

from anarchy import AnarchyError, nash_flow, normalize_network, opt_flow, ratio_sup

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


def _rates(net, rate):
    # The drawn demand, and where the optimal flow opens each link: half
    # each finite breakpoint, and the next double above it.
    out = [rate]
    for b in net.breakpoints:
        if b < math.inf:
            out += [b / 2.0, math.nextafter(b / 2.0, math.inf)]
    return out


def _call(faults, fn, *args):
    # fn(*args), or None on a typed error; any other exception is a fault.
    try:
        return fn(*args)
    except AnarchyError:
        return None
    except Exception as exc:
        faults.append((fn.__name__, args, repr(exc)))
        return None


def test_plain_costs_and_ratios_stay_in_bounds():
    rng = random.Random(1)
    faults = []
    for decades in (150, 300):
        for links, rate in _draws(rng, 1500, decades):
            net = _call(faults, normalize_network, links)
            if net is None:
                continue
            sup = _call(faults, ratio_sup, net)
            if sup is not None and not 1.0 - RATIO_RTOL <= sup[0] <= 4.0 / 3.0 * (1.0 + RATIO_RTOL):
                faults.append(("ratio_sup", links, *sup))
            for r in _rates(net, rate):
                for solve in (nash_flow, opt_flow):
                    res = _call(faults, solve, net, r)
                    if res is not None and not (math.isfinite(res.cost) and res.cost >= 0.0):
                        faults.append((solve.__name__, links, r, res.cost))
    assert not faults, (len(faults), faults[:3])
