"""Tests of RationalPoly arithmetic and formatting, and property tests of
RationalPoly and fit_and_verify."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from casson3.polynomial import RationalPoly, fit_and_verify

_PROPERTY = settings(max_examples=30, deadline=None)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonzero = rationals.filter(bool)
polys = st.builds(RationalPoly, st.lists(rationals, max_size=6).map(tuple),
                  st.integers(-4, 4))

ONE = RationalPoly((1,))


def t_to(n):
    return ONE.shift(n)


@_PROPERTY
@given(polys, polys, nonzero, st.integers(-4, 4))
def test_evaluation_is_a_ring_map(a, b, x, k):
    assert (a + b)(x) == a(x) + b(x)
    assert (a - b)(x) == a(x) - b(x)
    assert (a * b)(x) == a(x) * b(x)
    assert a.shift(k)(x) == a(x) * x ** k


@_PROPERTY
@given(polys, st.integers(0, 3), st.integers(0, 3))
def test_zero_padding_is_invisible(a, before, after):
    padded = RationalPoly((0,) * before + a.coeffs + (0,) * after, a.low - before)
    assert padded == a and hash(padded) == hash(a)
    assert a - a == RationalPoly.zero()


@_PROPERTY
@given(st.data(), st.integers(0, 4))
def test_fit_recovers_polynomial(data, d):
    coeffs = data.draw(st.lists(rationals, min_size=d, max_size=d)) + [data.draw(nonzero)]
    p = RationalPoly(tuple(coeffs))
    xs = data.draw(st.lists(st.integers(-20, 20), min_size=d + 3, max_size=d + 3, unique=True))
    assert fit_and_verify({x: p(x) for x in xs}, d, extra_check_points=2) == p


def test_laurent_arithmetic():
    a = t_to(1) + t_to(-1)
    b = ONE - t_to(1)
    assert a == RationalPoly((1, 0, 1), -1)
    assert a + (-a) == RationalPoly.zero()
    assert a * b == RationalPoly((1, -1, 1, -1), -1)
    assert [(a * b)[n] for n in range(-2, 4)] == [0, 1, -1, 1, -1, 0]
    assert a.shift(2) == RationalPoly((0, 1, 0, 1))
    assert RationalPoly((1, -1, 1), -1).format("t") == "t - 1 + t^-1"
    # canonical form: no trailing zeros, no leading zeros below x^0, low <= 0
    assert RationalPoly((0, 0, Fraction(1, 2), 0), -2) == RationalPoly((Fraction(1, 2),))
    assert RationalPoly((Fraction(1, 2),)).coeffs == (Fraction(1, 2),)
    assert RationalPoly((1,), 2).coeffs == (0, 0, 1)
    assert RationalPoly((0, 0), -5) == RationalPoly.zero() and RationalPoly.zero().low == 0


def test_rational_poly_format():
    assert RationalPoly((0, Fraction(-9, 4), Fraction(5, 2))).format("K") \
        == "5/2*K^2 - 9/4*K"
    assert RationalPoly((3, 0, Fraction(-1, 2))).format("K") == "-1/2*K^2 + 3"
    assert RationalPoly((-1, 1)).format("x") == "x - 1"
    assert RationalPoly((0, 0, 0, -1)).format("K") == "-K^3"
    assert RationalPoly.zero().format("K") == "0"
