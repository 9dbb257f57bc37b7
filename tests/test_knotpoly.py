from fractions import Fraction

import pytest

from casson3.errors import InvalidSurgery
from casson3.flat_moduli import count_connections, enumerate_connections
from casson3.knotpoly import alexander_torus, check_conjecture, second_derivative_at_one
from casson3.polynomial import RationalPoly, fit_and_verify
from casson3.assembly import reference_B, reference_C, reference_Lambda
from casson3.seifert import from_surgery

ONE = RationalPoly((1,))
ODD_Q = range(3, 62, 2)


def t_to(n):
    return RationalPoly((0,) * n + (1,))


def test_alexander_trefoil():
    assert alexander_torus(3) == RationalPoly((1, -1, 1))


def test_alexander_2_5():
    assert alexander_torus(5) == RationalPoly((1, -1, 1, -1, 1))


def test_alexander_normalization_and_symmetry():
    for q in ODD_Q:
        d = alexander_torus(q)
        assert d(1) == 1
        assert d.degree == q - 1 and d.coeffs == d.coeffs[::-1], q


def test_alexander_defining_identity():
    # P(t) * (t^2 - 1)(t^q - 1) == (t^{2q} - 1)(t - 1)
    for q in ODD_Q:
        den = (t_to(2) - ONE) * (t_to(q) - ONE)
        num = (t_to(2 * q) - ONE) * (t_to(1) - ONE)
        assert alexander_torus(q) * den == num, q


def test_alexander_refuses_an_invalid_q():
    for q in (-3, 0, 1, 2, 4, 10):
        with pytest.raises(InvalidSurgery, match=f"q must be odd and >= 3, got {q}"):
            alexander_torus(q)


def test_second_derivative_values():
    assert second_derivative_at_one(alexander_torus(3)) == 2
    assert second_derivative_at_one(alexander_torus(5)) == 6
    assert second_derivative_at_one(ONE) == 0
    # an odd degree centres at a half-integer: t^(-1/2) + t^(1/2)
    assert second_derivative_at_one(RationalPoly((1, 1))) == Fraction(1, 2)
    # the N = |D''(1)| law that check_conjecture reports
    for q in ODD_Q:
        d2 = second_derivative_at_one(alexander_torus(q))
        assert d2 == (q * q - 1) // 4 == count_connections(q, 1), q


def _fits(q):
    plus = {K: reference_Lambda(q, K) for K in range(1, 7)}
    minus = {K: reference_Lambda(q, K) for K in range(-6, 0)}
    return fit_and_verify(plus), fit_and_verify(minus)


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
        assert report["stated_vs_actual_factor"] is not None


def test_difference_formula_via_fits():
    for q in (3, 5, 7, 9):
        fit_plus, fit_minus = _fits(q)
        n_q = (q * q - 1) // 4
        assert fit_plus - fit_minus == RationalPoly((0, Fraction(n_q, 4)))


def test_lambda_quadratic_coefficient():
    # law (b): Lambda's K^2 coefficient is (q^2 - 1)(q^2 - 4)/16 on both signs
    for q in (3, 5, 7, 9):
        for sign in (1, -1):
            fit = fit_and_verify({sign * k: reference_Lambda(q, sign * k) for k in range(1, 41)})
            assert fit.degree == 2 and fit[2] == Fraction((q * q - 1) * (q * q - 4), 16), (q, sign)


def test_b_plus_c_is_quadratic():
    # law (c): B + C is a quadratic with K^2 coefficient -N/4 on both signs,
    # and its K coefficients differ by N/4
    for q in (3, 5, 7, 9):
        n_q = Fraction(q * q - 1, 4)
        fits = {}
        for sign in (1, -1):
            fits[sign] = fit_and_verify({sign * k: reference_B(q, sign * k) + reference_C(q, sign * k)
                                         for k in range(1, 41)})
            assert fits[sign].degree == 2 and fits[sign][2] == -n_q / 4, (q, sign)
        assert fits[1][1] - fits[-1][1] == n_q / 4, q


def test_rep_count_is_enumerated():
    for q in (3, 5, 7, 9, 11):
        report = check_conjecture(q, RationalPoly.zero(), RationalPoly.zero())
        count = len(enumerate_connections(from_surgery(q, 1)))
        assert report["rep_count_per_k"] == count == count_connections(q, 1)
