import random
from fractions import Fraction

import pytest

from casson3.errors import AmbiguousSnap, NoCandidate, SingularSystem
from casson3.exact_arith import (
    FloatEstimate,
    farey_neighbors,
    snap_to_rational,
    solve_vandermonde,
)
from casson3.polynomial import RationalPoly


def test_snap_exact_representable():
    assert snap_to_rational(FloatEstimate(0.25, 1e-12), 4) == Fraction(1, 4)


def test_snap_seventeen_twelfths():
    # oracle: exhaustive scan of all denominators 1..60 for the nearest rational
    x = 1.4166666666
    best = min(
        (Fraction(round(x * q), q) for q in range(1, 61)),
        key=lambda r: abs(x - r),
    )
    assert best == Fraction(17, 12)
    assert snap_to_rational(FloatEstimate(x, 1e-9), 60) == Fraction(17, 12)


def test_snap_no_candidate():
    with pytest.raises(NoCandidate):
        snap_to_rational(FloatEstimate(0.3333333, 1e-10), 2)


def test_snap_ambiguous():
    # 5/12 sits between 1/3 and 1/2; a huge window sees both
    with pytest.raises(AmbiguousSnap):
        snap_to_rational(FloatEstimate(5 / 12, 0.2), 3)


def test_snap_rejects_bad_bound_and_nonfinite():
    with pytest.raises(ValueError):
        snap_to_rational(FloatEstimate(0.5, 1e-12), 0)
    with pytest.raises(NoCandidate):
        snap_to_rational(FloatEstimate(float("nan"), 1e-12), 10)


def test_snap_roundtrip_random():
    # 1000 random p/q with q <= 10^6 snap back exactly from their float image
    rng = random.Random(20240211)
    for _ in range(1000):
        q = rng.randint(1, 10**6)
        p = rng.randint(-(10**6), 10**6)
        r = Fraction(p, q)
        x = float(r)
        err = 4e-16 * max(1.0, abs(x))
        assert snap_to_rational(FloatEstimate(x, err), r.denominator) == r


def test_farey_neighbors():
    left, right = farey_neighbors(Fraction(17, 12), 60)
    assert left < Fraction(17, 12) < right
    assert left.denominator <= 60 and right.denominator <= 60
    # nothing with denominator <= 60 sits strictly between neighbor and 17/12
    for q in range(1, 61):
        for num in (round(float(left) * q), round(float(right) * q)):
            c = Fraction(num, q)
            assert not (left < c < Fraction(17, 12)) and not (Fraction(17, 12) < c < right)


def test_exactness_roundtrip_random():
    rng = random.Random(7)
    for _ in range(500):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_fraction_normalized_invariants():
    r = Fraction(6, -4)
    assert r.denominator > 0 and abs(Fraction(r.numerator, r.denominator)) == abs(r)
    assert Fraction(2, 4) == Fraction(1, 2)


def test_vandermonde_quadratic_closed_form():
    pts = [(1, Fraction(1, 4)), (2, Fraction(11, 2)), (3, Fraction(63, 4))]
    poly = solve_vandermonde(pts, 2)
    assert poly.coeffs == (Fraction(0), Fraction(-9, 4), Fraction(10, 4))
    for x, y in pts:
        assert poly(x) == y


def test_vandermonde_zero_poly():
    assert solve_vandermonde([(0, 0), (1, 0)], 1) == RationalPoly.zero()


def test_vandermonde_cubic():
    # oracle: evaluate K^3 + K by hand at 1, 2, -1, -2 -> 2, 10, -2, -10
    pts = [(1, 2), (2, 10), (-1, -2), (-2, -10)]
    poly = solve_vandermonde(pts, 3)
    assert poly.coeffs == (Fraction(0), Fraction(1), Fraction(0), Fraction(1))


def test_vandermonde_errors():
    with pytest.raises(SingularSystem):
        solve_vandermonde([(1, 1), (1, 2)], 1)
    with pytest.raises(ValueError):
        solve_vandermonde([(1, 1)], 1)


def test_vandermonde_random_roundtrip():
    rng = random.Random(99)
    for _ in range(50):
        d = rng.randint(0, 5)
        xs = rng.sample(range(-30, 30), d + 1)
        ys = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in xs]
        poly = solve_vandermonde(list(zip(xs, ys)), d)
        assert poly.degree <= d
        for x, y in zip(xs, ys):
            assert poly(x) == y
