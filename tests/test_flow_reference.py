"""nash_flow and opt_flow against kept copies of their former bodies.

Both now read one shared split; the optimal flow is the selfish split with
every efficiency halved.  The references below are the separate closed
forms each solver used to carry, and the flows and used-link count must
match them bit for bit.  Halving is exact in the normal range, so the
optimal reference, which solves at twice the demand and halves the flows,
agrees there; at a subnormal demand, where both former forms can lose
the rate, flows that differ from them must sum to the rate exactly.  The
level, the intercept of the last open link plus the demand past its
breakpoint, and the costs are compared with the exact level and costs of
the same links, in rational arithmetic.
"""

import math
import random
import sys
from bisect import bisect_right
from fractions import Fraction

from anarchy import FlowProfile, nash_flow, normalize_network, opt_flow
from anarchy.equilibrium import _segment_index

# A sum or product of a few rounded non-negative terms; below the normal
# range rounding is absolute, a few subnormals.
COST_RTOL = 4 * 2.0 ** -52
COST_ATOL = 4 * math.ulp(0.0)
# The level is a sum of an intercept and a quotient of rounded terms.
LEVEL_ULPS = 3


def nash_reference(net, rate):
    k = net.k
    if net.has_flat_tail and rate >= net.breakpoints[-1]:
        bk = net.links[-1].intercept
        flows = [(bk - net.links[i].intercept) * net.efficiency[i] for i in range(k - 1)]
        flows.append(rate - math.fsum(flows))
        profile = FlowProfile(rate=rate, flows=tuple(flows))
        return profile, profile.used_count
    j = min(_segment_index(net.breakpoints, rate), k)
    eff_j = net.eff_prefix[j - 1]
    top = net.links[j - 1].intercept
    past = (rate - net.breakpoints[j - 1]) / eff_j
    flows = [0.0] * k
    for i in range(j):
        flows[i] = max(0.0, net.efficiency[i] * ((top - net.links[i].intercept) + past))
    profile = FlowProfile(rate=rate, flows=tuple(flows))
    return profile, profile.used_count


def opt_reference(net, rate):
    k = net.k
    if net.has_flat_tail and 2.0 * rate >= net.breakpoints[-1]:
        bk = net.links[-1].intercept
        flows = [(bk - net.links[i].intercept) * net.efficiency[i] / 2.0 for i in range(k - 1)]
        flows.append(rate - math.fsum(flows))
        profile = FlowProfile(rate=rate, flows=tuple(flows))
        return profile, profile.used_count
    h = min(_segment_index(tuple(b / 2.0 for b in net.breakpoints), rate), k)
    eff_h = net.eff_prefix[h - 1]
    top = net.links[h - 1].intercept
    past = (2.0 * rate - net.breakpoints[h - 1]) / eff_h
    flows = [0.0] * k
    for i in range(h):
        flows[i] = max(0.0, net.efficiency[i] * ((top - net.links[i].intercept) + past) / 2.0)
    profile = FlowProfile(rate=rate, flows=tuple(flows))
    return profile, profile.used_count


def exact_solution(net):
    """The exact selfish and optimal cost and level of `net` at a demand, as
    a function.

    In rational arithmetic nothing cancels, so the closed forms serve.  With
    links 0..h-1 used and E, O the sums of e_i = 1/a_i and e_i b_i over
    them, the selfish cost is (r^2 + O r) / E; the optimal cost is the same
    less the sum over pairs i < g of e_i e_g (b_g - b_i)^2 / (4 E), with h
    the links the selfish flow uses at twice the demand.  Past a zero-slope
    last link at intercept B, the selfish cost is r B and the optimal cost
    sum_i e_i (B^2 - b_i^2) / 4 + (r - S / 2) B, with S the demand at which
    that link opens.  The selfish level is (r + O) / E, or B past that
    link; the optimal level, the marginal cost, is the selfish level at
    twice the demand.
    """
    links = [(Fraction(l.slope), Fraction(l.intercept)) for l in net.links]
    top = links[-1][1] if links[-1][0] == 0 else None
    rising = links if top is None else links[:-1]
    effs = [1 / a for a, _ in rising]
    opens, forms = [], []
    eff = off = Fraction(0)
    for h, (e, (_, b)) in enumerate(zip(effs, rising)):
        opens.append(sum(e_i * (b - b_i) for e_i, (_, b_i) in zip(effs[:h], rising)))
        eff, off = eff + e, off + e * b
        pairs = sum(effs[i] * effs[g] * (rising[g][1] - rising[i][1]) ** 2
                    for g in range(h + 1) for i in range(g))
        forms.append((eff, off, pairs / (4 * eff)))
    if top is not None:
        opens.append(sum(e * (top - b) for e, (_, b) in zip(effs, rising)))
        saved = sum(e * (top * top - b * b) for e, (_, b) in zip(effs, rising)) / 4

    def cost(r, demand, optimal):
        # The cost at r over the links the selfish flow uses at `demand`.
        used = bisect_right(opens, demand)
        if used > len(forms):
            return saved + (r - opens[-1] / 2) * top if optimal else r * top
        eff, off, spread = forms[used - 1]
        return (r * r + off * r) / eff - (spread if optimal else 0)

    def level(demand):
        used = bisect_right(opens, demand)
        if used > len(forms):
            return top
        eff, off, _ = forms[used - 1]
        return (demand + off) / eff

    def solution(rate):
        # The selfish cost and level, then the optimal ones.
        r = Fraction(rate)
        return cost(r, r, False), level(r), cost(r, 2 * r, True), level(2 * r)

    return solution


def _networks(rng, count):
    # Slopes from 1e-8 to 1e6, about a third with a zero-slope last link.
    for _ in range(count):
        k = rng.randint(1, 7)
        scale = 10.0 ** rng.uniform(-8, 6)
        links = [{"a": scale * rng.uniform(0.05, 5.0), "b": rng.uniform(0.0, 4.0)}
                 for _ in range(k)]
        if k >= 2 and rng.random() < 0.35:
            links[-1] = {"a": 0.0, "b": 4.0 + rng.uniform(0.01, 2.0)}
        yield normalize_network(links)


def _rates(rng, net):
    # Every breakpoint and half-breakpoint with its neighbouring doubles,
    # plus random demands up to twice the last breakpoint.
    top = max(net.breakpoints[-1], 1e-12)
    out = [rng.uniform(0.0, 2.0 * top) for _ in range(6)]
    for b in net.breakpoints:
        for p in (b, b / 2.0):
            out += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    return [r for r in out if r >= 0.0]


def _near(cost, exact_cost):
    return abs(Fraction(cost) - exact_cost) <= COST_RTOL * exact_cost + COST_ATOL


def _level_near(level, exact_level):
    return abs(Fraction(level) - exact_level) <= LEVEL_ULPS * Fraction(math.ulp(float(exact_level)))


def _same(result, reference, exact_cost, exact_level):
    profile, used = reference
    return (result.profile.flows == profile.flows and result.used_count == used
            and _near(result.cost, exact_cost) and _level_near(result.level, exact_level))


def test_flows_match_former_closed_forms():
    rng = random.Random(4242)
    compared = 0
    for net in _networks(rng, 300):
        exact = exact_solution(net)
        for r in _rates(rng, net):
            nash_cost, nash_level, opt_cost, opt_level = exact(r)
            for solve, former, cost, level in ((nash_flow, nash_reference, nash_cost, nash_level),
                                               (opt_flow, opt_reference, opt_cost, opt_level)):
                result, reference = solve(net, r), former(net, r)
                if 0.0 < r < sys.float_info.min and result.profile.flows != reference[0].flows:
                    # Past the breakpoint the demand over the summed
                    # efficiency is subnormal, so the former forms lose bits
                    # of the rate; the share form must keep all of them.
                    assert math.fsum(result.profile.flows) == r, (net.to_json_dict(), r)
                    assert _near(result.cost, cost) and _level_near(result.level, level), (
                        net.to_json_dict(), r)
                else:
                    assert _same(result, reference, cost, level), (net.to_json_dict(), r)
            compared += 1
    assert compared >= 5000
