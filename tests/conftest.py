import random

import pytest

from anarchy import normalize_network


@pytest.fixture
def pigou():
    return normalize_network([{"a": 1, "b": 0}, {"a": 0, "b": 1}])


# The efficiency-weighted spread of the intercepts overflows, so a closed
# form that subtracts it reads the optimal cost as -inf.
NEGATIVE_OPT = [
    {"a": 6.849242324770906e+233, "b": 5.057866383350227e-217},
    {"a": 3.137021653725009e-209, "b": 3.451188210731796e-88},
    {"a": 1.0740747917884396e-115, "b": 3.912848119424984e-148},
    {"a": 2.5058956042101665e-296, "b": 4.953757606126863e-77},
    {"a": 1e-300, "b": 1.4524961336438668e+172},
]
# Cancelling the intercept spread reads this optimal cost at demand
# 5.371637362363765e-171 as -8.1e-252; it is 3.558188437418522e-223.
CANCELLING_OPT = [{"a": 4.7559646512727246e+109, "b": 6.624029478657258e-53},
                  {"a": 1.351583560220586e+146, "b": 7.772376368555479e-112}]
# The optimal cost at the ratio's peak is the subnormal 1e-323, where a
# ratio of the rounded costs reads 2.
SUBNORMAL_OPT = [{"a": 4.287123305807745e+113, "b": 0},
                 {"a": 1.1128978814043246e+91, "b": 3.7560510236320286e-105}]
# Slopes of 1e-300: each efficiency is 1e300, and their product overflows.
TINY_SLOPES = [{"a": 1e-300, "b": 0}, {"a": 1e-300, "b": 1e-300}]
# The zero-slope tail at 1.3e4 opens near demand 7.8e304; at 1e305 both
# costs, about rate * 1.3e4, pass the float range.
OVERFLOWING_TAIL = [*({"a": 1e-300, "b": i * 1e-3} for i in range(6)), {"a": 0, "b": 1.3e4}]
# Past the zero-slope tail at demand 6.551735390898654e+233, the tail's
# remainder of the optimal split rounds to -1.77e218, which the profile
# clips to 0; a cost over the unclipped flows sums -inf with inf.
CLIPPED_TAIL = [{"a": 5.3148406078049895e-95, "b": 8.860483117855546e-105},
                {"a": 8.767676068412692e-17, "b": 3.750959709778704e+139},
                {"a": 0.0, "b": 6.964285861428253e+139}]
# 1/a of the second link overflows to inf; it opens below the demand given.
OVERFLOWED_EFFICIENCY = [
    ([{"a": 7.138698153057926e-282, "b": 0}, {"a": 3.438020993e-315, "b": 2.852124733339543e-47}],
     1e300),
    ([{"a": 1, "b": 0}, {"a": 3e-315, "b": 1}], 1e30),
]
# Each efficiency 1/a is finite, their sum is not; the second link opens at
# demand 1e8.
OVERFLOWED_SUM = [{"a": 1e-308, "b": 0}, {"a": 1e-308, "b": 1e-300}]
# The flow offset b/a overflows to inf; the level is the intercept 1e10.
OVERFLOWED_OFFSET = [{"a": 1e-300, "b": 1e10}]
# The flow offset b/a is subnormal: (rate + b/a) * a read the level at
# demand 0 as 1.2077781844505036e-270 (selfish) and 1.166130660848762e-270
# (optimal).
SUBNORMAL_OFFSET = [{"a": 8.429552621661882e+51, "b": 1.205319570959975e-270}]


def random_network(rng: random.Random, kmax: int = 5, allow_flat: bool = False):
    """Random normalized instance; optionally give the last link zero slope."""
    k = rng.randint(1, kmax)
    links = [
        {"a": rng.uniform(0.05, 5.0), "b": rng.uniform(0.0, 4.0)}
        for _ in range(k)
    ]
    if allow_flat and k >= 2 and rng.random() < 0.3:
        top = max(l["b"] for l in links)
        links[-1] = {"a": 0.0, "b": top + rng.uniform(0.01, 2.0)}
    return normalize_network(links)
