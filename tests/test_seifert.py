import dataclasses
import math

import pytest

from casson3.errors import InvalidSurgery
from casson3.seifert import BrieskornSphere, from_surgery, reverse_orientation


def test_from_surgery_positive():
    X = from_surgery(3, 1)
    assert X.a == (2, 3, 5)
    assert X.orientation == -1
    assert (X.q, X.K) == (3, 1)


def test_from_surgery_negative():
    X = from_surgery(3, -1)
    assert X.a == (2, 3, 7)
    assert X.orientation == 1
    assert (X.q, X.K) == (3, -1)


def test_from_surgery_q9():
    X = from_surgery(9, 2)
    assert X.a == (2, 9, 35)
    assert X.fiber_product == 630


def test_homology_sphere_condition():
    # every valid (q, K) gives pairwise coprime multiplicities (the inverse
    # mod n in the cotangent-sum kernel needs them), and the Seifert
    # invariants of the module docstring make it a homology sphere
    for q in range(3, 42, 2):
        m = (q - 1) // 2
        for k in range(1, 201):
            for K, b0, b in ((k, -1, (1, m, k)), (-k, 1, (-1, -m, -k))):
                a = from_surgery(q, K).a
                assert all(math.gcd(a[i], a[j]) == 1
                           for i in range(3) for j in range(i + 1, 3)), (q, K)
                assert all(math.gcd(bi, ai) == 1 for ai, bi in zip(a, b)), (q, K)
                prod = a[0] * a[1] * a[2]
                assert b0 * prod + sum(bi * (prod // ai) for ai, bi in zip(a, b)) == 1, (q, K)


def test_invalid_surgery():
    for q, K in [(4, 1), (1, 1), (2, 3), (3, 0)]:
        with pytest.raises(InvalidSurgery):
            from_surgery(q, K)
    for q, K, orientation in [(4, 1, 1), (3, 0, -1), (3, 1, 2)]:
        with pytest.raises(InvalidSurgery):
            BrieskornSphere(q, K, orientation)


def test_reverse_orientation_fields():
    X = reverse_orientation(from_surgery(3, 1))
    assert (X.q, X.K, X.a) == (3, 1, (2, 3, 5))
    assert X.orientation == 1
    Y = reverse_orientation(from_surgery(3, -1))
    assert (Y.q, Y.K, Y.a, Y.orientation) == (3, -1, (2, 3, 7), -1)


def test_reverse_orientation_involution():
    for K in (1, -1, 3, -4):
        X = from_surgery(5, K)
        assert reverse_orientation(reverse_orientation(X)) == X
        assert reverse_orientation(X) != X
        assert reverse_orientation(X).a == X.a


def test_constructor_validation():
    # the constructor takes (q, K, orientation) and derives a, which it
    # does not accept as an argument
    init = [f.name for f in dataclasses.fields(BrieskornSphere) if f.init]
    assert init == ["q", "K", "orientation"]
    assert BrieskornSphere(3, 1, 1) == reverse_orientation(from_surgery(3, 1))
    assert BrieskornSphere(7, -2, -1).a == (2, 7, 29)
    with pytest.raises(TypeError):
        BrieskornSphere(3, 1, -1, (2, 3, 5))
