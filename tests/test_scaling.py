"""Counted-work scaling gates: no layer's work grows faster than about k log k.

Call counts do not depend on the machine's load, so each layer's calls are
counted with ``sys.setprofile`` at k = 100 and at k = 1000 links: every call
into a function of the package, and every builtin a package function calls,
so a loop that stays in one frame still counts its steps.  Linear work gives
a ratio of 10, k log k about 15 and quadratic work 100, so a ratio below 20
separates them.  Absolute counts differ across Python versions (3.12 inlines
list comprehensions), so only the ratio is asserted.
"""

import os
import random
import sys

import pytest

import anarchy
from anarchy import (
    PiecewiseLatency,
    build_threshold_mechanism,
    is_user_equilibrium,
    nash_flow,
    normalize_network,
    opt_flow,
    ratio_sup,
    water_fill,
)

_PACKAGE = os.path.dirname(anarchy.__file__) + os.sep
SMALL, LARGE, BOUND = 100, 1000, 20


class _Enough(BaseException):
    # Stops a count past its limit; not an Exception, so no handler in the
    # package catches it.
    pass


def _calls(work, limit=None):
    """Calls into the package and builtins it calls while ``work()`` runs.

    Past ``limit`` the count stops, and so does ``work``.
    """
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call") and frame.f_code.co_filename.startswith(_PACKAGE):
            count += 1
            if limit is not None and count > limit:
                raise _Enough

    sys.setprofile(profile)
    try:
        work()
    except _Enough:
        pass
    finally:
        sys.setprofile(None)
    return count


def _links(k):
    rng = random.Random(k)
    return [{"a": rng.uniform(0.05, 5.0), "b": rng.uniform(0.0, 4.0)} for _ in range(k)]


def _net(k):
    return normalize_network(_links(k))


def _rate(net):
    # Every link is open.
    return 2.0 * net.breakpoints[-1]


def _normalize(k):
    links = _links(k)
    return lambda: normalize_network(links)


def _nash(k):
    net = _net(k)
    return lambda: nash_flow(net, _rate(net))


def _opt(k):
    net = _net(k)
    return lambda: opt_flow(net, _rate(net))


def _certificate(k):
    net = _net(k)
    lats = [PiecewiseLatency.from_affine(link) for link in net.links]
    profile = nash_flow(net, _rate(net)).profile
    return lambda: is_user_equilibrium(lats, profile)


def _threshold_water_fill(k):
    # Fresh latencies, so the sweep is built, not looked up.
    net = _net(k)
    lats = build_threshold_mechanism(net, [2.0] * (k - 1))[1]
    return lambda: water_fill(lats, _rate(net))


def _plain_sup(k):
    net = _net(k)
    return lambda: ratio_sup(net)


def _threshold_sup(k):
    net = _net(k)
    mech = build_threshold_mechanism(net, [2.0] * (k - 1))
    return lambda: ratio_sup(net, mech)


def _flat_on_every_link(k):
    # One flat segment on each link, so the sweep meets k flats.
    rng = random.Random(0)
    lats = []
    for _ in range(k):
        a, b = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
        s = rng.uniform(0.1, 1.0)
        e = s + rng.uniform(0.1, 1.0)
        lats.append(PiecewiseLatency((0.0, s, e), (a, 0.0, a), (b, a * e + b, b)))
    return lambda: water_fill(lats, 0.5 * k)


def _ratio(layer):
    small = _calls(layer(SMALL))
    large = _calls(layer(LARGE), limit=BOUND * small)
    return large / small


@pytest.mark.parametrize("layer", [_normalize, _nash, _opt, _certificate, _threshold_water_fill,
                                   _plain_sup, _threshold_sup])
def test_layer_work_grows_about_linearly(layer):
    assert _ratio(layer) < BOUND


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the sweep recounts every link's least flow at each flat")
def test_sweep_work_on_a_flat_on_every_link():
    assert _ratio(_flat_on_every_link) < BOUND
