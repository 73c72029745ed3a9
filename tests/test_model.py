import copy
import math
import pickle
import random
import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import anarchy
from anarchy import (
    AffineLatency,
    AnarchyError,
    EmptyNetwork,
    FlowProfile,
    InvalidModelValue,
    NegativeCoefficient,
    NegativeRate,
    PiecewiseLatency,
    SchemaError,
    ZeroSlopeNotLast,
    nash_flow,
    network_from_dict,
    normalize_network,
    water_fill,
)
from anarchy.equilibrium import _supply_events
from anarchy.model import _ROUNDING, _allowance


def corners_rise(lat):
    # Each segment starts no lower than the one before it ends.
    segs = lat.segments
    return all(nxt[3] >= prev[4] for prev, nxt in zip(segs, segs[1:]))


def test_affine_rejects_negative_coefficients():
    with pytest.raises(NegativeCoefficient):
        AffineLatency(-1.0, 0.0)
    with pytest.raises(NegativeCoefficient):
        AffineLatency(1.0, -0.5)
    with pytest.raises(NegativeCoefficient):
        AffineLatency(math.inf, 0.0)


def test_efficiency_and_offset():
    lat = AffineLatency(0.5, 2.0)
    assert lat.efficiency == 2.0
    assert lat.flow_offset == 4.0
    flat = AffineLatency(0.0, 1.0)
    assert flat.efficiency == math.inf
    assert flat.flow_offset == math.inf
    assert AffineLatency(0.0, 0.0).flow_offset == 0.0


def test_normalize_sorts_by_intercept():
    net = normalize_network([{"a": 1, "b": 3}, {"a": 2, "b": 1}, {"a": 1, "b": 2}])
    assert net.intercepts == (1.0, 2.0, 3.0)


def test_normalize_merges_equal_intercepts():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 0}])
    assert net.k == 1
    # efficiencies add, so the merged slope is 1/2
    assert net.links[0].slope == pytest.approx(0.5)
    assert net.links[0].intercept == 0.0


def test_normalize_merges_past_the_summed_efficiency_range():
    # 1/1e-308 + 1/1e-308 overflows, yet the merged slope is 5e-309, not 0.
    net = normalize_network([{"a": 1e-308, "b": 0}, {"a": 1e-308, "b": 0}, {"a": 1, "b": 1}])
    assert net.links == (AffineLatency(5e-309, 0.0), AffineLatency(1.0, 1.0))
    alone = normalize_network([{"a": 1e-308, "b": 0}, {"a": 1e-308, "b": 0}])
    assert alone.links == (AffineLatency(5e-309, 0.0),)
    with pytest.raises(InvalidModelValue, match=re.escape("link 0 (slope 5e-309)")):
        nash_flow(alone, 1.0)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3, 1e30, 1e-30, 1e300, 1e-300])
def test_normalize_merges_within_two_ulps(scale):
    # Tied slopes a and b merge to the exact 1/(1/a + 1/b) within 2 ulps.
    rng = random.Random(44)
    for _ in range(10000):
        a, b = (scale * 2.0 ** rng.uniform(-4.0, 4.0) for _ in range(2))
        merged = normalize_network([AffineLatency(a, 1.0), AffineLatency(b, 1.0)]).links[0].slope
        exact = 1 / (1 / Fraction(a) + 1 / Fraction(b))
        assert abs(Fraction(merged) - exact) <= 2 * Fraction(math.ulp(float(exact))), (a, b)


@pytest.mark.parametrize("a, b, slope", [
    (0.0, 2.0, 0.0), (2.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1e-308, 1e-308, 5e-309),
])
def test_normalize_merge_rows(a, b, slope):
    merged = normalize_network([AffineLatency(a, 1.0), AffineLatency(b, 1.0)]).links
    assert merged == (AffineLatency(slope, 1.0),)
    assert math.copysign(1.0, merged[0].slope) == 1.0


def test_normalize_merges_into_flat_tail():
    # Two links tied at intercept 1, one of them constant, merge into one
    # zero-slope last link.
    net = normalize_network([{"a": 0, "b": 1}, {"a": 2, "b": 1}, {"a": 1, "b": 0}])
    assert net.links == (AffineLatency(1.0, 0.0), AffineLatency(0.0, 1.0))
    assert net.has_flat_tail


def test_normalize_is_idempotent():
    net = normalize_network([{"a": 2, "b": 1}, {"a": 0.5, "b": 0}, {"a": 1, "b": 1}])
    again = normalize_network(net.links)
    assert again.links == net.links
    assert again.breakpoints == net.breakpoints


def test_normalize_rejects_empty_and_misplaced_flat():
    with pytest.raises(EmptyNetwork):
        normalize_network([])
    with pytest.raises(ZeroSlopeNotLast):
        normalize_network([{"a": 0, "b": 0}, {"a": 1, "b": 1}])


def test_pigou_breakpoints(pigou):
    assert pigou.k == 2
    assert pigou.breakpoints == (0.0, 1.0)
    assert pigou.has_flat_tail


def test_normalize_accepts_overflowed_flow_offset():
    # b/a overflows to inf, but no solver reads the flow offsets.
    net = normalize_network([{"a": 1e-300, "b": 1e10}])
    assert net.off_prefix == (math.inf,)
    # A link whose breakpoint overflows never opens at a finite demand.
    net = normalize_network([{"a": 1e-300, "b": 0}, {"a": 1, "b": 1e10}])
    assert net.breakpoints[1] == math.inf


def test_prefix_identities_hold():
    net = normalize_network(
        [{"a": 1.5, "b": 0.2}, {"a": 0.7, "b": 1.1}, {"a": 0.3, "b": 2.9}]
    )
    for j in range(net.k):
        b = net.links[j].intercept
        assert net.off_prefix[j] + net.breakpoints[j] == pytest.approx(
            b * net.eff_prefix[j], rel=1e-12
        )
        if j > 0:
            assert net.off_prefix[j - 1] + net.breakpoints[j] == pytest.approx(
                b * net.eff_prefix[j - 1], rel=1e-12
            )


def test_breakpoints_match_direct_sum():
    rng = random.Random(17)
    for _ in range(100):
        k = rng.randint(1, 40)
        links = [{"a": 10 ** rng.uniform(-6, 6), "b": 10 ** rng.uniform(-6, 6)} for _ in range(k)]
        net = normalize_network(links)
        for j in range(net.k):
            b = net.links[j].intercept
            want = math.fsum((b - net.links[i].intercept) * net.efficiency[i] for i in range(j))
            assert net.breakpoints[j] == pytest.approx(want, rel=1e-12)


def test_network_from_dict_schema_errors():
    with pytest.raises(SchemaError):
        network_from_dict({"nope": []})
    with pytest.raises(SchemaError):
        network_from_dict({"links": "oops"})
    with pytest.raises(SchemaError):
        network_from_dict({"links": [{"a": 1}]})
    with pytest.raises(SchemaError):
        network_from_dict({"links": [{"a": "x", "b": 0}]})


def test_normalize_network_schema_errors():
    # float() would read a numeric string, bytes or a bool, but none is a number.
    for links in ([{"a": "x", "b": 1}], [{"a": None, "b": 1}], [{"a": "2", "b": 1}],
                  [{"a": b"2", "b": 1}], [{"a": 1, "b": False}]):
        with pytest.raises(SchemaError, match='link 0 needs numeric "a" and "b"'):
            normalize_network(links)
    net = normalize_network([{"a": Fraction(1, 2), "b": 1}])
    assert net.links == (AffineLatency(0.5, 1.0),)
    with pytest.raises(SchemaError, match="link 1 is not an object"):
        normalize_network([{"a": 1, "b": 0}, 3])


def test_segment_keeps_its_links():
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}, {"a": 1, "b": 2}])
    tail = net.segment(1, 3)
    assert tail.k == 2
    assert tail.intercepts == (1.0, 2.0)
    assert tail.breakpoints[1] == pytest.approx(1.0)
    # A shorter segment's prefix aggregates are the leading ones of a longer.
    head = net.segment(1, 2)
    assert head.links == net.links[1:2]
    for name in ("efficiency", "eff_prefix", "off_prefix", "breakpoints"):
        assert getattr(head, name) == getattr(tail, name)[:1], name


class TestPiecewiseLatency:
    def plateau(self):
        # x on [0, 0.9], constant 1.3 on (0.9, 1.2], x + 0.1 above
        return PiecewiseLatency(
            starts=(0.0, 0.9, 1.2), slopes=(1.0, 0.0, 1.0), offsets=(0.0, 1.3, 0.1)
        )

    def test_value_is_left_limit_at_boundary(self):
        lat = self.plateau()
        assert lat.value(0.9) == pytest.approx(0.9)
        assert lat.right_liminf(0.9) == pytest.approx(1.3)
        assert lat.value(1.0) == pytest.approx(1.3)
        assert lat.value(1.2) == pytest.approx(1.3)
        assert lat.right_liminf(1.2) == pytest.approx(1.3)
        assert lat.value(2.0) == pytest.approx(2.1)

    def test_cap_semantics(self):
        lat = PiecewiseLatency(starts=(0.0,), slopes=(1.0,), offsets=(0.0,), cap=0.5)
        assert lat.value(0.5) == pytest.approx(0.5)
        assert lat.value(0.6) == math.inf
        assert lat.right_liminf(0.5) == math.inf
        assert lat.right_liminf(0.4) == pytest.approx(0.4)

    def test_vectorized_matches_scalar(self):
        # Values and right limits at the corners and just past them, by hand.
        lat = self.plateau()
        xs = (0.0, 0.45, 0.9, 0.91, 1.2, 1.21, 3.0)
        values = (0.0, 0.45, 0.9, 1.3, 1.3, 1.31, 3.1)
        right_limits = (0.0, 0.45, 1.3, 1.3, 1.3, 1.31, 3.1)
        for x, v, r in zip(xs, values, right_limits):
            assert lat.value(x) == pytest.approx(v)
            assert lat.right_liminf(x) == pytest.approx(r)

    def test_limits_read_the_segments_of_value_and_right_limit(self):
        # At a start the value reads the segment before it and the right
        # limit the one after; each comes with slope*x + |offset| of its
        # segment, x at least the least normal double.  A negative offset
        # counts by its size.
        lat = PiecewiseLatency(starts=(0.0, 0.9, 1.2), slopes=(1.0, 0.0, 2.0),
                               offsets=(0.0, 1.3, -1.1), cap=2.0)
        tiny = sys.float_info.min
        assert lat.limits(0.0) == (0.0, tiny, 0.0, tiny)
        assert lat.limits(0.9) == (0.9, 0.9, 1.3, 1.3)
        assert lat.limits(1.2) == (1.3, 1.3, 2.0 * 1.2 - 1.1, 2.0 * 1.2 + 1.1)
        assert lat.limits(2.0) == (2.9, 5.1, math.inf, 5.1)
        assert lat.limits(2.5)[::2] == (math.inf, math.inf)
        for x in (0.0, 5e-324, 0.45, 0.9, 1.0, 1.2, 1.5, 2.0, 2.5):
            assert lat.limits(x)[::2] == (lat.value(x), lat.right_liminf(x)), x

    def test_rejects_dropping_boundary(self):
        with pytest.raises(ValueError):
            PiecewiseLatency(starts=(0.0, 1.0), slopes=(1.0, 1.0), offsets=(0.0, -0.5))

    def test_rejects_bad_segments(self):
        with pytest.raises(ValueError):
            PiecewiseLatency(starts=(0.5,), slopes=(1.0,), offsets=(0.0,))
        with pytest.raises(ValueError):
            PiecewiseLatency(starts=(0.0, 0.0), slopes=(1.0, 1.0), offsets=(0.0, 0.0))

    def test_monotone_and_dominates(self):
        lat = self.plateau()
        assert corners_rise(lat)
        assert lat.dominates(AffineLatency(1.0, 0.0))
        assert not lat.dominates(AffineLatency(2.0, 0.0))

    def test_dominates_checks_past_the_last_corner(self):
        # 2x up to 10, then 0.5x + 15: undercuts x from x = 30 on.
        lat = PiecewiseLatency(starts=(0.0, 10.0), slopes=(2.0, 0.5), offsets=(0.0, 15.0))
        assert lat.value(40.0) < AffineLatency(1.0, 0.0).value(40.0)
        assert not lat.dominates(AffineLatency(1.0, 0.0))
        assert lat.dominates(AffineLatency(0.5, 0.0))
        capped = PiecewiseLatency(starts=(0.0, 10.0), slopes=(2.0, 0.5), offsets=(0.0, 15.0), cap=30.0)
        assert capped.dominates(AffineLatency(1.0, 0.0))
        assert corners_rise(lat) and corners_rise(capped)

    @pytest.mark.parametrize("mu", [1e3, 1e6, 1e12])
    def test_accepts_cancelling_boundary_at_large_scale(self, mu):
        # Flat at 0 up to s, then slope m*mu with offset (-m*s)*mu: the right
        # value at s is 0 only to the rounding of m*s*mu, however large.
        rng = random.Random(36)
        for _ in range(300):
            s, m = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
            lat = PiecewiseLatency((0.0, s), (0.0, m * mu), (0.0, (-m * s) * mu))
            assert corners_rise(lat)

    def test_rejects_small_drop_at_small_scale(self):
        # A drop of half the value is a drop at every scale.
        with pytest.raises(InvalidModelValue):
            PiecewiseLatency((0.0, 1e-12), (1.0, 1.0), (0.0, -5e-13))
        with pytest.raises(InvalidModelValue):
            PiecewiseLatency((0.0, 1.0), (1.0, 1.0), (0.0, -0.5))
        low = PiecewiseLatency.from_affine(AffineLatency(1.0, 5e-13))
        assert not low.dominates(AffineLatency(1.0, 1e-12))

    def test_segments_carry_corner_levels(self):
        lat = self.plateau()
        levels = {v for seg in lat.segments for v in seg[3:]}
        assert 0.9 in levels
        assert 1.3 in levels
        assert lat.segments[1] == (0.9, 1.2, 0.0, 1.3, 1.3)
        assert lat.segments[2][4] == math.inf
        capped = PiecewiseLatency(starts=(0.0, 1.0), slopes=(1.0, 2.0), offsets=(0.0, -1.0), cap=0.5)
        assert capped.segments == ((0.0, 0.5, 1.0, 0.0, 0.5),)


@given(
    slope=st.floats(min_value=0.0, max_value=10.0),
    intercept=st.floats(min_value=0.0, max_value=10.0),
    x=st.floats(min_value=0.0, max_value=100.0),
)
def test_single_segment_matches_affine(slope, intercept, x):
    base = AffineLatency(slope, intercept)
    piece = PiecewiseLatency.from_affine(base)
    assert piece.value(x) == base.value(x)
    assert piece.right_liminf(x) == base.value(x)


def test_piecewise_repr_shows_the_constructor_arguments():
    lat = PiecewiseLatency((0.0, 0.5), (1.0, 0.0), (0.0, 0.5))
    assert repr(lat) == ("PiecewiseLatency(starts=(0.0, 0.5), slopes=(1.0, 0.0), "
                         "offsets=(0.0, 0.5), cap=inf)")


def test_flow_profile_validation():
    prof = FlowProfile(rate=1.0, flows=(0.4, 0.6))
    assert prof.used_count == 2
    # A flow one ulp of the rate below 0 is clamped; 1e-12 is past the
    # rounding allowance.
    clamped = FlowProfile(rate=1.0, flows=(1.0 + 2**-52, -2**-52))
    assert clamped.flows[1] == 0.0
    with pytest.raises(InvalidModelValue):
        FlowProfile(rate=1.0, flows=(1.0 + 1e-12, -1e-12))
    with pytest.raises(ValueError):
        FlowProfile(rate=1.0, flows=(0.4, 0.4))
    with pytest.raises(ValueError):
        FlowProfile(rate=1.0, flows=(1.5, -0.5))
    # The slack is relative to the rate, plus one subnormal per flow.
    with pytest.raises(ValueError):
        FlowProfile(rate=1e-12, flows=(1e-12, 5e-10))
    assert FlowProfile(rate=1e-323, flows=(1e-323, 5e-324)).used_count == 2


def test_flow_profile_refuses_nan_flows_and_bad_rates():
    # A NaN flow compared false with every bound, and a NaN sum too.
    with pytest.raises(InvalidModelValue, match="flow 0 is NaN"):
        FlowProfile(rate=1.0, flows=(math.nan,))
    with pytest.raises(InvalidModelValue, match="flow 1 is NaN"):
        FlowProfile(rate=1.0, flows=(1.0, math.nan))
    for rate, flows in [(math.nan, (0.5, 0.5)), (math.inf, (math.inf, 0.0)), (-1.0, (0.0,))]:
        with pytest.raises(NegativeRate, match="finite and >= 0"):
            FlowProfile(rate=rate, flows=flows)
    # An infinite flow at a finite rate fails the sum, as a solver's
    # overflowed split does.
    with pytest.raises(InvalidModelValue, match="flows sum to inf"):
        FlowProfile(rate=1.0, flows=(math.inf, 0.0))


# Each record type with checked or derived fields: its constructor's
# arguments, a change that gives another valid record, and a change that the
# constructor refuses with its typed error.
CHECKED_RECORDS = [
    (AffineLatency, {"slope": 2.0, "intercept": 1}, {"slope": 3}, {"slope": -1.0},
     NegativeCoefficient),
    (PiecewiseLatency, {"starts": (0.0, 1.0), "slopes": (1.0, 0.0), "offsets": (0.0, 1.0),
                        "cap": 3.0}, {"cap": 0.5}, {"cap": -1.0}, InvalidModelValue),
    (FlowProfile, {"rate": 1, "flows": (0.25, 0.75)}, {"flows": [0.5, 0.5]},
     {"flows": (0.5, 0.25)}, InvalidModelValue),
]


@pytest.mark.parametrize("cls, args, change, bad, error", CHECKED_RECORDS,
                         ids=[case[0].__name__ for case in CHECKED_RECORDS])
def test_copies_go_through_the_constructor(cls, args, change, bad, error):
    record = cls(**args)
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record)), record._replace()):
        assert type(copied) is cls and copied == cls(**args) and copied is not record
    changed = record._replace(**change)
    fresh = cls(**{**args, **change})
    assert type(changed) is cls and changed == fresh and changed != record
    if cls is PiecewiseLatency:
        # A cap of 0.5 drops the flat segment that starts at 1.
        assert changed.segments == fresh.segments != record.segments
    with pytest.raises(error):
        record._replace(**bad)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], getattr(record, cls._fields[0]))


def test_bad_values_raise_one_typed_error():
    assert issubclass(InvalidModelValue, AnarchyError)
    assert issubclass(InvalidModelValue, ValueError)
    # Errors no longer raised are no longer exported.
    assert not hasattr(anarchy, "TooManyLinks") and not hasattr(anarchy, "RatioTooSmall")
    with pytest.raises(InvalidModelValue):
        PiecewiseLatency(starts=(0.0,), slopes=(1.0,), offsets=(math.inf,))
    with pytest.raises(InvalidModelValue):
        FlowProfile(rate=1.0, flows=(0.4, 0.4))


def reference_segments(lat):
    """Corner table of a latency, by the walk the constructor replaced."""
    out = []
    ends = lat.starts[1:] + (math.inf,)
    top = -math.inf
    for lo, end, m, c in zip(lat.starts, ends, lat.slopes, lat.offsets):
        hi = min(end, lat.cap)
        if not hi > lo:
            break
        v_lo = max(top, m * lo + c)
        top = max(v_lo, m * hi + c if math.isfinite(hi) else (math.inf if m > 0.0 else c))
        out.append((lo, hi, m, v_lo, top))
    return tuple(out)


def reference_supply_events(lat):
    """Supply events of a latency, read off its reference corner table.

    A rising segment whose corner levels round equal adds no supply slope:
    the supply jumps there by its width, as at a flat segment.
    """
    out, release = [], (0.0, 0.0)
    segs = reference_segments(lat)
    for (lo, hi, m, v_lo, v_hi), nxt in zip(segs, segs[1:] + (None,)):
        rate = 1.0 / m if m > 0.0 and v_hi > v_lo else 0.0
        out.append((v_lo, 0.0 if rate else hi - lo, rate, *release))
        if hi < math.inf:
            held = (hi, hi * v_hi) if nxt is None or nxt[3] > v_hi else (0.0, 0.0)
            out.append((v_hi, 0.0, -rate, *held))
            release = (-held[0], -held[1])
    return tuple(out)


def _seeded_latency(rng, scale_x, scale_v, dip=_ROUNDING):
    # Up to five segments with flat ones, upward jumps and boundary dips
    # within half of `dip` of the value; the cap lies inside a segment,
    # exactly at or one double before a segment start, at 0 or -0.0, or is
    # absent.
    starts = [0.0] + sorted(rng.uniform(0.05, 3.0) * scale_x for _ in range(rng.randint(0, 4)))
    slopes, offsets = [], []
    left = rng.uniform(0.0, 2.0) * scale_v
    for i, s in enumerate(starts):
        m = 0.0 if rng.random() < 0.3 else rng.uniform(0.1, 3.0) * scale_v / scale_x
        v = left
        if i and rng.random() < 0.4:
            v += rng.uniform(0.0, 1.5) * scale_v
        elif i and rng.random() < 0.2:
            v -= rng.uniform(0.0, 0.5) * dip * abs(left)
        slopes.append(m)
        offsets.append(v - m * s)
        if i + 1 < len(starts):
            left = m * starts[i + 1] + offsets[-1]
    inner = starts[1:] or [1.0]
    cap = rng.choice([
        math.inf, math.inf, rng.uniform(0.2, 4.0) * scale_x, rng.choice(inner),
        math.nextafter(rng.choice(inner), -math.inf), 0.0, -0.0,
    ])
    return PiecewiseLatency(tuple(starts), tuple(slopes), tuple(offsets), cap=cap)


def _reference_value(lat, x):
    # PiecewiseLatency.value as it was written before it read limits.
    if x > lat.cap:
        return math.inf
    idx = max(0, bisect_left(lat.starts, x) - 1)
    return lat.slopes[idx] * x + lat.offsets[idx]


def _reference_right_liminf(lat, x):
    # PiecewiseLatency.right_liminf as it was written before it read limits.
    if x >= lat.cap:
        return math.inf
    idx = max(0, bisect_right(lat.starts, x) - 1)
    return lat.slopes[idx] * x + lat.offsets[idx]


def _same(u, v):
    # Equal to the bit: NaN as NaN, and the sign of zero kept.
    return (u != u and v != v) or (u == v and math.copysign(1.0, u) == math.copysign(1.0, v))


def test_readers_match_their_reference_bodies():
    # value and right_liminf read limits; at every segment start, the cap,
    # the special flows and one double either side of each finite flow,
    # they give what their own bisections gave.
    rng = random.Random(44)
    scales = (1.0, 10.0, 0.1, 1e8, 1e-8, 1e300, 1e-300)
    probes = 0
    for _ in range(3000):
        try:
            lat = _seeded_latency(rng, rng.choice(scales), rng.choice(scales))
        except InvalidModelValue:
            continue
        flows = {*lat.starts, lat.cap, 0.0, -0.0, math.inf, -math.inf, 5e-324}
        for x in [f for f in flows if math.isfinite(f)]:
            flows.update((math.nextafter(x, -math.inf), math.nextafter(x, math.inf)))
        for x in [*flows, math.nan]:
            assert _same(lat.value(x), _reference_value(lat, x)), (lat, x)
            assert _same(lat.right_liminf(x), _reference_right_liminf(lat, x)), (lat, x)
            probes += 1
    assert probes > 35000
    assert math.isnan(PiecewiseLatency.from_affine(AffineLatency(1.0, 0.0), cap=1.0).value(math.nan))


def test_corner_tables_match_reference_walk():
    rng = random.Random(21)
    scales = (1.0, 10.0, 0.1, 1e8, 1e-8, 1e300, 1e-300)
    built = dipped = 0
    for _ in range(3000):
        try:
            lat = _seeded_latency(rng, rng.choice(scales), rng.choice(scales))
        except InvalidModelValue:
            continue
        built += 1
        dipped += any(nxt[3] > nxt[2] * nxt[0] + off
                      for nxt, off in zip(lat.segments[1:], lat.offsets[1:]))
        assert lat.segments == reference_segments(lat), lat
        assert tuple(_supply_events(lat)) == reference_supply_events(lat), lat
    assert built > 2500 and dipped > 20
    flat_cap = PiecewiseLatency((0.0, 1.0), (1.0, 0.0), (0.0, 1.0), cap=-0.0)
    assert flat_cap.segments == () and tuple(_supply_events(flat_cap)) == ()


@pytest.mark.parametrize("dip", [_ROUNDING, 1e-12])
def test_corner_levels_within_the_right_limits_allowance(dip):
    # The corner table lifts a boundary dip to the highest level before it,
    # while the certificate reads the unlifted right limit, widened by the
    # allowance of its terms; construction refuses a dip past that.
    rng = random.Random(21)
    scales = (1.0, 10.0, 0.1, 1e8, 1e-8, 1e300, 1e-300)
    for _ in range(3000):
        try:
            lat = _seeded_latency(rng, rng.choice(scales), rng.choice(scales), dip)
        except InvalidModelValue:
            continue
        for lo, _, _, v_lo, _ in lat.segments[1:]:
            _, _, right, terms = lat.limits(lo)
            assert right + _allowance(terms) >= v_lo, lat


def test_boundary_dip_at_the_rounding_allowance():
    # Just after flow 1 the latency is 1 + c, two terms summing 1 + |c|, so
    # it may sit _ROUNDING below 1, eight doubles, and not one double more.
    at = 1.0 - _ROUNDING
    past = math.nextafter(at, 0.0)
    lat = PiecewiseLatency((0.0, 1.0), (1.0, 1.0), (0.0, at - 1.0))
    with pytest.raises(InvalidModelValue, match=re.escape(f"boundary 1.0: 1.0 -> {past}")):
        PiecewiseLatency((0.0, 1.0), (1.0, 1.0), (0.0, past - 1.0))
    # A second dip counts from the level the first is lifted to.
    with pytest.raises(InvalidModelValue, match=re.escape("boundary 2.0: 1.0 -> ")):
        PiecewiseLatency((0.0, 1.0, 2.0), (0.0, 0.0, 0.0), (1.0, at, at - _ROUNDING))
    # water_fill raises CertificateFailed on a split it cannot certify.
    for partner in (AffineLatency(1.0, 0.5), AffineLatency(0.0, 1.0)):
        for rate in (1.5, 2.0, 3.0):
            water_fill([lat, PiecewiseLatency.from_affine(partner)], rate)


@pytest.mark.parametrize("starts, slopes, offsets, cap, error, message", [
    ((), (), (), math.inf, InvalidModelValue, "segments need matching"),
    ((0.0,), (1.0, 2.0), (0.0,), math.inf, InvalidModelValue, "segments need matching"),
    ((0.5,), (1.0,), (0.0,), math.inf, InvalidModelValue, "first segment must start at 0"),
    ((0.0, 0.0), (1.0, 1.0), (0.0, 0.0), math.inf, InvalidModelValue, "strictly increasing"),
    ((0.0, 2.0, 1.0), (-1.0, 1.0, 1.0), (math.inf, 0.0, 0.0), -1.0, InvalidModelValue,
     "strictly increasing"),
    ((0.0, math.nan), (1.0, 1.0), (0.0, 0.0), math.inf, InvalidModelValue, "strictly increasing"),
    ((0.0, 1.0), (1.0, -1.0), (math.nan, -5.0), -1.0, InvalidModelValue, "slopes must be finite"),
    ((0.0, 1.0), (1.0, math.inf), (0.0, 0.0), math.nan, InvalidModelValue, "slopes must be finite"),
    ((0.0, 1.0), (1.0, 1.0), (0.0, math.inf), -1.0, InvalidModelValue, "offsets must be finite"),
    ((0.0, 1.0), (1.0, 1.0), (0.0, -0.5), -1.0, InvalidModelValue, "cap must be >= 0"),
    ((0.0, 1.0), (1.0, 1.0), (0.0, -0.5), 0.5, InvalidModelValue,
     "value drops at boundary 1.0: 1.0 -> 0.5"),
    ((0.0, 1.0, 2.0), (1.0, 1.0, 1.0), (0.0, 0.0, -0.5), 0.5, InvalidModelValue,
     "value drops at boundary 2.0: 2.0 -> 1.5"),
    ((0.0, math.inf), (1.0, 1.0), (0.0, 0.0), math.inf, InvalidModelValue,
     "value drops at boundary inf"),
    ((0.5, "x"), (1.0, 1.0), (0.0, 0.0), math.inf, ValueError, "'x'"),
    ((0.0, 1.0), (None, -1.0), (0.0, 0.0), math.inf, TypeError, "NoneType"),
    ((0.0, 1.0), (1.0, -1.0), (0.0, "y"), math.inf, ValueError, "'y'"),
    ((0.0, 1.0), (1.0, -1.0), (0.0, 0.0), "z", ValueError, "'z'"),
])
def test_invalid_latency_raises_its_first_error(starts, slopes, offsets, cap, error, message):
    # Conversion first, then starts, slopes, offsets, cap and the boundaries.
    with pytest.raises(error, match=re.escape(message)) as caught:
        PiecewiseLatency(starts, slopes, offsets, cap=cap)
    assert type(caught.value) is error
