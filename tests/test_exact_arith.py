import random
from fractions import Fraction

import pytest

from casson3.errors import AmbiguousSnap, NoCandidate
from casson3.exact_arith import FloatEstimate, farey_neighbors, snap_to_rational


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
