from fractions import Fraction

import pytest

from casson3.errors import NotCoprime
from casson3.knotpoly import (
    LaurentPoly,
    alexander_torus,
    check_conjecture,
    second_derivative_at_one,
)
from casson3.polynomial import RationalPoly
from casson3.assembly import reference_Lambda
from casson3.polyrecon import fit_and_verify


def test_alexander_trefoil():
    assert alexander_torus(2, 3) == LaurentPoly({1: 1, 0: -1, -1: 1})


def test_alexander_2_5():
    assert alexander_torus(2, 5) == LaurentPoly({2: 1, 1: -1, 0: 1, -1: -1, -2: 1})


def test_alexander_unknot_convention():
    assert alexander_torus(1, 5) == LaurentPoly.one()


def test_alexander_normalization_and_symmetry():
    for p, q in [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (4, 5)]:
        d = alexander_torus(p, q)
        assert d.at_one() == 1
        assert d.mirror() == d


def test_alexander_defining_identity():
    # D(t) * (t^p - 1)(t^q - 1) == t^{-(p-1)(q-1)/2} (t^{pq} - 1)(t - 1)
    for p, q in [(2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (3, 4), (3, 5),
                 (5, 7), (7, 11), (2, 21), (5, 2)]:
        d = alexander_torus(p, q)
        den = LaurentPoly({p: 1, 0: -1}) * LaurentPoly({q: 1, 0: -1})
        num = LaurentPoly({p * q: 1, 0: -1}) * LaurentPoly({1: 1, 0: -1})
        shift = (p - 1) * (q - 1) // 2
        assert d * den == num.shift(-shift)


def test_not_coprime():
    with pytest.raises(NotCoprime):
        alexander_torus(2, 4)


def test_second_derivative_values():
    assert second_derivative_at_one(alexander_torus(2, 3)) == 2
    assert second_derivative_at_one(alexander_torus(2, 5)) == 6
    assert second_derivative_at_one(LaurentPoly.one()) == 0
    for q in (3, 5, 7, 9, 11):
        assert second_derivative_at_one(alexander_torus(2, q)) == (q * q - 1) // 4


def _fits(q):
    plus = {K: reference_Lambda(q, K) for K in range(1, 6)}
    minus = {K: reference_Lambda(q, K) for K in range(-5, 0)}
    return (fit_and_verify(plus, 2, extra_check_points=2),
            fit_and_verify(minus, 2, extra_check_points=2))


def test_conjecture_report_q3():
    report = check_conjecture(3, *_fits(3))
    assert report["N"] == 2
    assert report["difference_equals_quarter_N_K"] is True
    assert report["rep_count_matches_N"] is True
    assert report["abs_second_derivative_matches_N"] is True
    assert report["stated_form_holds"] is False
    assert report["stated_vs_actual_factor"] == "-4"


def test_conjecture_report_all_q():
    for q in (3, 5, 7, 9):
        report = check_conjecture(q, *_fits(q))
        assert report["N"] == (q * q - 1) // 4
        assert report["difference_equals_quarter_N_K"] is True
        assert report["rep_count_matches_N"] is True
        assert report["abs_second_derivative_matches_N"] is True
        assert report["stated_form_holds"] is False


def test_difference_formula_via_fits():
    for q in (3, 5, 7, 9):
        fit_plus, fit_minus = _fits(q)
        n_q = (q * q - 1) // 4
        assert fit_plus - fit_minus == RationalPoly.from_coeffs([0, Fraction(n_q, 4)])


def test_laurent_arithmetic():
    a = LaurentPoly({1: 1, -1: 1})
    b = LaurentPoly({0: 1, 1: -1})
    assert a + (-a) == LaurentPoly()
    assert (a * b).coeffs == {1: 1, 2: -1, -1: 1, 0: -1}
    assert a.shift(2) == LaurentPoly({3: 1, 1: 1})
    assert repr(LaurentPoly({1: 1, 0: -1, -1: 1})) == "t - 1 + t^-1"


def test_rational_poly_format():
    assert RationalPoly.from_coeffs([0, Fraction(-9, 4), Fraction(5, 2)]).format("K") \
        == "5/2*K^2 - 9/4*K"
    assert RationalPoly.from_coeffs([3, 0, Fraction(-1, 2)]).format("K") == "-1/2*K^2 + 3"
    assert RationalPoly.from_coeffs([-1, 1]).format("x") == "x - 1"
    assert RationalPoly.from_coeffs([0, 0, 0, -1]).format("K") == "-K^3"
    assert RationalPoly.zero().format("K") == "0"
