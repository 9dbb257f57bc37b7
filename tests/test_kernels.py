import math
import random
from fractions import Fraction

from casson3 import _kernels
from casson3.dedekind import cot_sum_exact


def _random_cases(count, seed):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.choice([2, 3, 5, 7, 11, 30, 101, 109, 181])
        A = rng.randrange(1, n)
        while math.gcd(A, n) != 1:
            A = rng.randrange(1, n)
        cases.append((A, rng.randrange(0, 2 * n), n))
    return cases


def test_numpy_kernel_matches_exact():
    for A, e, n in _random_cases(40, 1):
        value, bound = _kernels.cot_sum(A, e, n)
        assert abs(Fraction(value) - cot_sum_exact(A, e, n)) <= Fraction(bound)
