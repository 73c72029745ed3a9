"""nash_flow and opt_flow against kept copies of their former bodies.

Both now read one shared selfish split; the optimal flow is half the
selfish flow at twice the demand.  The references below are the separate
closed forms each solver used to carry, and the outputs must match them
bit for bit: flows, level, cost and used-link count.
"""

import math
import random

from anarchy import FlowProfile, nash_flow, normalize_network, opt_flow
from anarchy.equilibrium import _segment_index


def nash_reference(net, rate):
    k = net.k
    if net.has_flat_tail and rate >= net.breakpoints[-1]:
        bk = net.links[-1].intercept
        flows = [(bk - net.links[i].intercept) * net.efficiency[i] for i in range(k - 1)]
        flows.append(rate - math.fsum(flows))
        profile = FlowProfile(rate=rate, flows=tuple(flows))
        return profile, bk, profile.used_count, rate * bk
    j = min(_segment_index(net.breakpoints, rate), k)
    eff_j = net.eff_prefix[j - 1]
    off_j = net.off_prefix[j - 1]
    level = (rate + off_j) / eff_j
    top = net.links[j - 1].intercept
    past = (rate - net.breakpoints[j - 1]) / eff_j
    flows = [0.0] * k
    for i in range(j):
        flows[i] = max(0.0, net.efficiency[i] * ((top - net.links[i].intercept) + past))
    profile = FlowProfile(rate=rate, flows=tuple(flows))
    return profile, level, profile.used_count, (rate * rate + off_j * rate) / eff_j


def opt_reference(net, rate):
    k = net.k
    if net.has_flat_tail and 2.0 * rate >= net.breakpoints[-1]:
        bk = net.links[-1].intercept
        flows = [(bk - net.links[i].intercept) * net.efficiency[i] / 2.0 for i in range(k - 1)]
        used = math.fsum(flows)
        flows.append(rate - used)
        profile = FlowProfile(rate=rate, flows=tuple(flows))
        cost = math.fsum(
            (bk * bk - b * b) * e / 4.0
            for b, e in zip(net.intercepts[:-1], net.efficiency[:-1])
        ) + (rate - used) * bk
        return profile, bk, profile.used_count, cost
    h = min(_segment_index(tuple(b / 2.0 for b in net.breakpoints), rate), k)
    eff_h = net.eff_prefix[h - 1]
    off_h = net.off_prefix[h - 1]
    level = (2.0 * rate + off_h) / eff_h
    top = net.links[h - 1].intercept
    past = (2.0 * rate - net.breakpoints[h - 1]) / eff_h
    flows = [0.0] * k
    for i in range(h):
        flows[i] = max(0.0, net.efficiency[i] * ((top - net.links[i].intercept) + past) / 2.0)
    profile = FlowProfile(rate=rate, flows=tuple(flows))
    cost = (rate * rate + off_h * rate) / eff_h - net.spread_prefix[h - 1] / 4.0
    return profile, level, profile.used_count, cost


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


def _same(result, reference):
    profile, level, used, cost = reference
    return (result.profile.flows == profile.flows and result.level == level
            and result.used_count == used and result.cost == cost)


def test_flows_match_former_closed_forms():
    rng = random.Random(4242)
    compared = 0
    for net in _networks(rng, 300):
        for r in _rates(rng, net):
            assert _same(nash_flow(net, r), nash_reference(net, r)), (net.to_json_dict(), r)
            assert _same(opt_flow(net, r), opt_reference(net, r)), (net.to_json_dict(), r)
            compared += 1
    assert compared >= 5000
