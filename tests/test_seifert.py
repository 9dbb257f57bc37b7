import random
from fractions import Fraction

import pytest

from casson3.errors import InvalidSurgery
from casson3.seifert import BrieskornSphere, from_surgery, reverse_orientation


def test_from_surgery_positive():
    X = from_surgery(3, 1)
    assert X.a == (2, 3, 5)
    assert (X.b0, X.b) == (-1, (1, 1, 1))
    assert X.orientation == -1
    assert X.surgery_origin == (3, 1)


def test_from_surgery_negative():
    X = from_surgery(3, -1)
    assert X.a == (2, 3, 7)
    assert (X.b0, X.b) == (1, (-1, -1, -1))
    assert X.orientation == 1


def test_from_surgery_q9():
    X = from_surgery(9, 2)
    assert X.a == (2, 9, 35)
    assert (X.b0, X.b) == (-1, (1, 4, 2))


def test_homology_sphere_condition():
    X = from_surgery(3, 1)
    assert X.euler_rational() == Fraction(1, 30)
    assert 30 * X.euler_rational() == 1
    rng = random.Random(3)
    for _ in range(40):
        q = rng.choice([3, 5, 7, 9, 11, 15])
        K = rng.choice([k for k in range(-8, 9) if k])
        Y = from_surgery(q, K)
        assert abs(Y.fiber_product * Y.euler_rational()) == 1


def test_invalid_surgery():
    for q, K in [(4, 1), (1, 1), (2, 3), (3, 0)]:
        with pytest.raises(InvalidSurgery):
            from_surgery(q, K)


def test_reverse_orientation_fields():
    X = reverse_orientation(from_surgery(3, 1))
    assert X.a == (2, 3, 5)
    assert (X.b0, X.b) == (1, (-1, -1, -1))
    assert X.orientation == 1
    Y = reverse_orientation(from_surgery(3, -1))
    assert (Y.b0, Y.b, Y.orientation) == (-1, (1, 1, 1), -1)


def test_reverse_orientation_involution():
    for K in (1, -1, 3, -4):
        X = from_surgery(5, K)
        assert reverse_orientation(reverse_orientation(X)) == X
        assert reverse_orientation(X).a == X.a
        assert reverse_orientation(X).euler_rational() == -X.euler_rational()


def test_constructor_validation():
    with pytest.raises(ValueError):
        BrieskornSphere(a=(2, 4, 5), b0=-1, b=(1, 1, 1), orientation=1)
    with pytest.raises(ValueError):
        BrieskornSphere(a=(2, 3, 5), b0=-1, b=(1, 3, 1), orientation=1)
    with pytest.raises(ValueError):  # fails the homology-sphere condition
        BrieskornSphere(a=(2, 3, 5), b0=-1, b=(1, 1, 3), orientation=1)
    with pytest.raises(ValueError):
        BrieskornSphere(a=(2, 3, 5), b0=-1, b=(1, 1, 1), orientation=2)

