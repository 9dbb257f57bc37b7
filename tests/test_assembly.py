import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casson3.assembly import (
    SUPPORTED_Q,
    InvariantReport,
    assemble,
    assemble_on_sphere,
    connect_sum_Lambda,
    connect_sum_lambda,
    lambda_su2,
    lambda_su3,
    reference_A,
    reference_B,
    reference_C,
    reference_Lambda,
)
from casson3.dedekind import c_correction
from casson3.errors import Casson3Error, InvalidSurgery, MissingClosedForm
from casson3.seifert import from_surgery, reverse_orientation


def test_assemble_3_1():
    r = assemble(3, 1)
    assert (r.A, r.B, r.C, r.D) == (2, Fraction(-19, 6), Fraction(17, 12), 0)
    assert r.Lambda_su3 == Fraction(1, 4)
    assert r.lambda_su2 == 2
    assert r.lambda_su3 == Fraction(-7, 6)


def test_assemble_3_minus1():
    r = assemble(3, -1)
    assert (r.A, r.B, r.C, r.D) == (4, Fraction(73, 42), Fraction(-41, 84), 0)
    assert r.Lambda_su3 == Fraction(21, 4)


def test_assemble_5_1():
    r = assemble(5, 1)
    assert (r.A, r.B, r.C) == (24, Fraction(-1669, 90), Fraction(1133, 180))
    assert r.Lambda_su3 == Fraction(47, 4)


def test_golden_subset_exact_path():
    for q in (3, 5, 7, 9):
        for K in (1, -1, 2, -2):
            r = assemble(q, K, path="exact")
            assert r.Lambda_su3 == reference_Lambda(q, K), (q, K)
            assert r.C == reference_C(q, K), (q, K)
            assert (4 * r.Lambda_su3).denominator == 1


@pytest.mark.slow
@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_golden_sweep_exact_path_to_K_100(q):
    # deselected by default; run with `python -m pytest -m slow`
    for K in (k for k in range(-100, 101) if k):
        r = assemble(q, K, path="exact")
        assert r.C == reference_C(q, K), (q, K)
        assert r.Lambda_su3 == reference_Lambda(q, K), (q, K)


@pytest.mark.slow
@pytest.mark.parametrize("q", range(11, 22, 2))
def test_c_sweep_beyond_the_stored_q(q):
    # deselected by default; the closed form of C against the computation
    for K in (k for k in range(-40, 41) if k):
        assert c_correction(from_surgery(q, K), path="exact") == reference_C(q, K), (q, K)


def test_reference_c_is_lambda_minus_a_minus_b():
    # the closed form of C against the stored forms, where all exist
    for q in SUPPORTED_Q:
        for K in (k for k in range(-50, 51) if k):
            assert reference_C(q, K) == \
                reference_Lambda(q, K) - reference_A(q, K) - reference_B(q, K), (q, K)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.integers(1, 12).map(lambda m: 2 * m + 1),
       st.integers(-20, 20).filter(lambda K: K != 0))
def test_c_closed_form_matches_the_computation(q, K):
    X = from_surgery(q, K)
    want = reference_C(q, K)
    assert c_correction(X, path="exact") == want
    assert c_correction(reverse_orientation(X), path="exact") == want


def test_lambda_su2():
    assert lambda_su2(3, 1) == 2
    assert lambda_su2(5, -2) == -12
    with pytest.raises(InvalidSurgery):
        lambda_su2(5, 0)
    with pytest.raises(InvalidSurgery):
        lambda_su2(4, 1)


def test_lambda_su3_small_perturbation_variant():
    assert lambda_su3(3, 1) == Fraction(-7, 6)
    # hand evaluation: A(5,-1) = 42, B(5,-1) = 1571/110
    assert reference_A(5, -1) == 42
    assert reference_B(5, -1) == Fraction(1571, 110)
    assert lambda_su3(5, -1) == 42 + Fraction(1571, 110)


def test_difference_is_correction_terms():
    for q, K in [(3, 1), (5, 2), (7, -1), (9, -2)]:
        r = assemble(q, K, path="exact")
        assert r.Lambda_su3 - lambda_su3(q, K) == r.C + r.D


def test_orientation_symmetry_sample():
    rng = random.Random(42)
    for _ in range(6):
        q = rng.choice([3, 5, 7, 9])
        K = rng.choice([k for k in range(-4, 5) if k])
        X = from_surgery(q, K)
        a = assemble_on_sphere(X, path="exact")
        b = assemble_on_sphere(reverse_orientation(X), path="exact")
        assert a.Lambda_su3 == b.Lambda_su3
        assert a.C == b.C


def test_connect_sum_Lambda():
    assert connect_sum_Lambda(0, 0, 0, 0) == 0
    assert connect_sum_Lambda(Fraction(1, 4), Fraction(1, 4), 2, 2) == Fraction(37, 2)
    assert connect_sum_Lambda(Fraction(1, 4), Fraction(1, 4), 2, 2, floer_sum=2) == 18


def test_connect_sum_small_perturbation_coefficient_four():
    assert connect_sum_lambda(1, 2, 3, 5) == 1 + 2 + 4 * 15


def test_missing_closed_form():
    with pytest.raises(MissingClosedForm):
        assemble(11, 1)
    with pytest.raises(MissingClosedForm):
        reference_A(11, 1)
    with pytest.raises(InvalidSurgery):
        assemble(3, 0)


def test_report_consistency_enforced():
    # the sums are derived, so only the integrality of 4 * Lambda can fail
    r = InvariantReport(q=3, K=1, A=Fraction(1), B=Fraction(1, 4), C=Fraction(0),
                        D=Fraction(0))
    assert (r.lambda_su2, r.lambda_su3, r.Lambda_su3) == (2, Fraction(5, 4), Fraction(5, 4))
    with pytest.raises(Casson3Error):
        InvariantReport(q=3, K=1, A=Fraction(1, 3), B=Fraction(0), C=Fraction(0),
                        D=Fraction(0))


def test_report_json_dict():
    d = assemble(3, 1).to_json_dict()
    assert d["Lambda_su3"] == "1/4"
    assert d["four_Lambda_integral"] is True
    assert d["q"] == 3 and d["K"] == 1
