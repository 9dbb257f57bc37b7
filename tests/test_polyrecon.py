import random
from fractions import Fraction

import pytest

from casson3.assembly import reference_Lambda
from casson3.dedekind import c_correction
from casson3.errors import DegreeExceeded
from casson3.polynomial import fit_and_verify
from casson3.seifert import from_surgery


def test_fit_lambda_q3():
    values = {K: reference_Lambda(3, K) for K in range(1, 6)}
    poly = fit_and_verify(values, 2)
    assert poly.coeffs == (Fraction(0), Fraction(-9, 4), Fraction(10, 4))


def test_fit_scaled_C_is_cubic():
    # 12(6K-1) * C(3,K) on K = 1..6, computed from the cotangent sums
    values = {
        K: 12 * (6 * K - 1) * c_correction(from_surgery(3, K), path="exact")
        for K in range(1, 7)
    }
    poly = fit_and_verify(values, 3)
    assert poly.coeffs == (Fraction(0), Fraction(-11), Fraction(84), Fraction(12))


def test_degree_too_low_raises():
    values = {K: reference_Lambda(3, K) for K in range(1, 5)}
    with pytest.raises(DegreeExceeded):
        fit_and_verify(values, 1)


def test_branches_differ():
    for q in (3, 5, 7, 9):
        plus = fit_and_verify({K: reference_Lambda(q, K) for K in range(1, 4)}, 2)
        minus = fit_and_verify({K: reference_Lambda(q, K) for K in range(-3, 0)}, 2)
        assert plus != minus


def test_negative_branch_fit():
    values = {K: reference_Lambda(5, K) for K in range(-6, 0)}
    poly = fit_and_verify(values, 2)
    assert poly.coeffs == (Fraction(0), Fraction(-85, 4), Fraction(126, 4))


def test_vandermonde_random_roundtrip():
    rng = random.Random(99)
    for _ in range(50):
        d = rng.randint(0, 5)
        xs = rng.sample(range(-30, 30), d + 1)
        ys = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in xs]
        poly = fit_and_verify(dict(zip(xs, ys)), d)
        assert poly.degree <= d
        for x, y in zip(xs, ys):
            assert poly(x) == y
