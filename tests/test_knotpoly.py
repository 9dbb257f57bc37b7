from fractions import Fraction

import pytest

from casson3.errors import NotCoprime
from casson3.flat_moduli import count_connections, enumerate_connections
from casson3.knotpoly import alexander_torus, check_conjecture, second_derivative_at_one
from casson3.polynomial import RationalPoly, fit_and_verify
from casson3.assembly import reference_B, reference_C, reference_Lambda
from casson3.seifert import from_surgery

ONE = RationalPoly((1,))


def t_to(n):
    return ONE.shift(n)


def test_alexander_trefoil():
    assert alexander_torus(2, 3) == RationalPoly((1, -1, 1), -1)


def test_alexander_2_5():
    assert alexander_torus(2, 5) == RationalPoly((1, -1, 1, -1, 1), -2)


def test_alexander_unknot_convention():
    assert alexander_torus(1, 5) == ONE


def test_alexander_normalization_and_symmetry():
    for p, q in [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (4, 5)]:
        d = alexander_torus(p, q)
        assert d(1) == 1
        assert d.low == -d.degree and d.coeffs == d.coeffs[::-1]


def test_alexander_defining_identity():
    # D(t) * (t^p - 1)(t^q - 1) == t^{-(p-1)(q-1)/2} (t^{pq} - 1)(t - 1)
    for p, q in [(2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (3, 4), (3, 5),
                 (5, 7), (7, 11), (2, 21), (5, 2)]:
        d = alexander_torus(p, q)
        den = (t_to(p) - ONE) * (t_to(q) - ONE)
        num = (t_to(p * q) - ONE) * (t_to(1) - ONE)
        shift = (p - 1) * (q - 1) // 2
        assert d * den == num.shift(-shift)


def test_not_coprime():
    with pytest.raises(NotCoprime):
        alexander_torus(2, 4)


def test_second_derivative_values():
    assert second_derivative_at_one(alexander_torus(2, 3)) == 2
    assert second_derivative_at_one(alexander_torus(2, 5)) == 6
    assert second_derivative_at_one(ONE) == 0
    for q in (3, 5, 7, 9, 11):
        assert second_derivative_at_one(alexander_torus(2, q)) == (q * q - 1) // 4


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
