"""The one-pass exact recurrence against the full O(m^3) recursion it replaces."""

import math
import random
from fractions import Fraction

import pytest

from anarchy import build_threshold_mechanism, normalize_network
from anarchy.analysis import (
    _exact_recurrence,
    benign_bound,
    greedy_parameters,
    recurrence_bound,
    two_link_simple_bound,
)
from anarchy.errors import EmptyNetwork, ParamOutOfRange, ParamTooSmall


def _benign(Rs):
    P = Fraction(1)
    for x in Rs:
        P *= 1 + x
    return 4 * P * P / (3 * P * P + 1)


def _reference_recurrence(Rs):
    """Every first super-efficient position j, every prefix benign bound."""
    m = len(Rs)
    memo = [Fraction(1)] * (m + 1)
    for i in range(m - 1, -1, -1):
        best = _benign(Rs[i:])
        for j in range(i, m):
            term = max(_benign(Rs[i:j]), (1 + Fraction(1) / Rs[j]) ** 2 * memo[j + 1])
            if term > best:
                best = term
        memo[i] = best
    return memo[0]


def _reference_greedy(k):
    """Greedy multipliers, re-running the full recursion after each one."""
    Rs = []
    inner = Fraction(1)
    four_thirds = Fraction(4, 3)
    for _ in range(k - 1):
        p, q = inner.numerator, inner.denominator
        lead = 4 * q - 3 * p
        disc = 36 * p * p + 12 * p * lead
        R = max(2, (6 * p + math.isqrt(disc)) // (2 * lead) + 1)
        while not Fraction(R + 1, R) ** 2 * inner < four_thirds:
            R += 1
        Rs.insert(0, Fraction(R))
        inner = _reference_recurrence(Rs)
    return [int(x) for x in Rs]


def test_one_pass_recurrence_matches_full_recursion():
    rng = random.Random(20121)
    cases = 0
    for trial in range(2200):
        m = trial % 9
        if trial % 2:
            Rs = [Fraction(rng.randint(2, 40)) for _ in range(m)]
        else:
            Rs = [Fraction(rng.uniform(2.0, 12.0)) for _ in range(m)]
        assert _exact_recurrence(Rs) == _reference_recurrence(Rs), Rs
        cases += 1
    assert cases >= 2000


def test_one_pass_recurrence_exact_at_multiplier_two():
    for m in range(9):
        Rs = [Fraction(2)] * m
        assert _exact_recurrence(Rs) == _reference_recurrence(Rs)


@pytest.mark.parametrize("k", range(1, 8))
def test_greedy_parameters_unchanged(k):
    assert greedy_parameters(k) == _reference_greedy(k)


@pytest.mark.parametrize("k", [8, 9, 1000])
def test_greedy_parameters_refuse_multipliers_beyond_floats(k):
    with pytest.raises(ParamOutOfRange, match=f"k={k}"):
        greedy_parameters(k)


@pytest.mark.parametrize("k", [0, -3])
def test_greedy_parameters_refuse_no_links(k):
    # The command line refuses --links 0 before it calls the library.
    with pytest.raises(EmptyNetwork, match=f"k={k}"):
        greedy_parameters(k)


@pytest.mark.parametrize("bad, error", [
    pytest.param(1.5, ParamTooSmall, id="1.5"),
    pytest.param(math.nan, ParamTooSmall, id="nan"),
    pytest.param(10 ** 309, ParamOutOfRange, id="10**309"),
    pytest.param(math.inf, ParamOutOfRange, id="inf"),
])
def test_recurrence_bound_refuses_multipliers_beyond_floats(bad, error):
    # Every entry point that takes multipliers applies the same check.
    net = normalize_network([{"a": 1, "b": 0}, {"a": 1, "b": 1}, {"a": 1e-3, "b": 2}])
    for take in (lambda x: recurrence_bound([4, x]), lambda x: benign_bound([4, x]),
                 two_link_simple_bound, lambda x: build_threshold_mechanism(net, [4, x])):
        with pytest.raises(error):
            take(bad)
