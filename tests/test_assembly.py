import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casson3.assembly import (
    SUPPORTED_Q,
    InvariantReport,
    assemble,
    assemble_on_sphere,
    cleared_denominator,
    lambda_su2,
    reference_A,
    reference_B,
    reference_C,
    reference_Lambda,
)
from casson3.dedekind import c_correction
from casson3.errors import Casson3Error, InvalidSurgery, MissingClosedForm
from casson3.flat_moduli import count_connections
from casson3.polynomial import fit_and_verify
from casson3.seifert import from_surgery, reverse_orientation

GRID_K = tuple(k for k in range(-6, 7) if k)


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


def test_golden_subset():
    t0 = time.perf_counter()
    reports = [assemble(q, K) for q in SUPPORTED_Q for K in GRID_K]
    assert time.perf_counter() - t0 < 5.0
    for r in reports:
        assert r.Lambda_su3 == reference_Lambda(r.q, r.K), (r.q, r.K)
        assert r.C == reference_C(r.q, r.K), (r.q, r.K)
        assert (4 * r.Lambda_su3).denominator == 1


@pytest.mark.slow
@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_golden_sweep_to_K_100(q):
    # deselected by default; run with `python -m pytest -m slow`
    for K in (k for k in range(-100, 101) if k):
        r = assemble(q, K)
        assert r.C == reference_C(q, K), (q, K)
        assert r.Lambda_su3 == reference_Lambda(q, K), (q, K)


@pytest.mark.slow
@pytest.mark.parametrize("q", range(11, 22, 2))
def test_c_sweep_beyond_the_stored_q(q):
    # deselected by default; the closed form of C against the computation
    for K in (k for k in range(-40, 41) if k):
        assert c_correction(from_surgery(q, K)) == reference_C(q, K), (q, K)


def test_reference_c_is_lambda_minus_a_minus_b():
    # the closed form of C against the stored forms, where all exist
    for q in SUPPORTED_Q:
        for K in (k for k in range(-50, 51) if k):
            assert reference_C(q, K) == \
                reference_Lambda(q, K) - reference_A(q, K) - reference_B(q, K), (q, K)


def _predicted_Lambda(q, K):
    """Lambda at every odd q, from an observation with no free parameter:

        (N^2 - 3N/4) K^2 + (-delta(q) (3q^2 + 3sq - 8)/4 + sign(K) N/8) K,

    N = (q^2 - 1)/4, delta(q) = floor((q + 1)/4), s = +-1 for q = +-1 (mod 4).
    Its constants (those of 4 mean(B) = -5 beta - delta) were read off the same
    stored rows the test checks it on, so the test pins the statement and is
    not evidence for it.  Beyond q = 9 it predicts B = Lambda - A - C."""
    N = Fraction(q * q - 1, 4)
    delta, s = (q + 1) // 4, 1 if q % 4 == 1 else -1
    linear = -delta * Fraction(3 * q * q + 3 * s * q - 8, 4) + (1 if K > 0 else -1) * N / 8
    return (N * N - 3 * N / 4) * K * K + linear * K


def test_predicted_lambda_is_the_stored_rows():
    for q in SUPPORTED_Q:
        for K in (k for k in range(-40, 41) if k):
            predicted = _predicted_Lambda(q, K)
            assert predicted == reference_Lambda(q, K), (q, K)
            assert predicted - reference_A(q, K) - reference_C(q, K) == reference_B(q, K), (q, K)


def test_reference_c_fit_is_rederived_from_the_computation():
    # reference_C made as its docstring says: for each sign and odd q in
    # 3..17, the cleared numerator of the computed C fitted as a cubic in K
    # on |K| <= 6; then each K-coefficient fitted as a polynomial in q over
    # those 8 q.  The result is the closed form on every odd q <= 61,
    # 0 < |K| <= 8, far beyond the q it was fitted on.
    fit_q = range(3, 18, 2)
    for sign in (1, -1):
        in_k = {q: fit_and_verify({sign * k: cleared_denominator(q, sign * k)
                                   * c_correction(from_surgery(q, sign * k))
                                   for k in range(1, 7)}) for q in fit_q}
        assert all(fit.degree == 3 for fit in in_k.values()), sign
        in_q = [fit_and_verify({q: in_k[q][n] for q in fit_q}) for n in range(4)]
        assert [p.degree for p in in_q] == [-1, 4, 5, 4], sign
        for q in range(3, 62, 2):
            for K in (sign * k for k in range(1, 9)):
                numerator = sum(p(q) * K ** n for n, p in enumerate(in_q))
                assert numerator / cleared_denominator(q, K) == reference_C(q, K), (q, K)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 12).map(lambda m: 2 * m + 1),
       st.integers(-20, 20).filter(lambda K: K != 0))
def test_c_closed_form_matches_the_computation(q, K):
    X = from_surgery(q, K)
    want = reference_C(q, K)
    assert c_correction(X) == want
    assert c_correction(reverse_orientation(X)) == want


def test_lambda_su2():
    assert lambda_su2(from_surgery(3, 1)) == 2
    assert lambda_su2(from_surgery(5, -2)) == -12
    assert lambda_su2(reverse_orientation(from_surgery(5, -2))) == 12
    with pytest.raises(InvalidSurgery):
        lambda_su2(from_surgery(5, 0))
    with pytest.raises(InvalidSurgery):
        lambda_su2(from_surgery(4, 1))


def test_lambda_su3_small_perturbation_variant():
    assert assemble(3, 1).lambda_su3 == Fraction(-7, 6)
    # hand evaluation: A(5,-1) = 42, B(5,-1) = 1571/110
    assert reference_A(5, -1) == 42
    assert reference_B(5, -1) == Fraction(1571, 110)
    assert assemble(5, -1).lambda_su3 == 42 + Fraction(1571, 110)


def test_difference_is_correction_terms():
    for q, K in [(3, 1), (5, 2), (7, -1), (9, -2)]:
        r = assemble(q, K)
        assert r.lambda_su3 == reference_A(q, K) + reference_B(q, K)
        assert r.Lambda_su3 - r.lambda_su3 == r.C + r.D


def test_orientation_symmetry_sample():
    rng = random.Random(20240517)
    cells = set()
    while len(cells) < 20:
        cells.add((rng.choice(SUPPORTED_Q), rng.choice(GRID_K)))
    for q, K in sorted(cells):
        X = from_surgery(q, K)
        a = assemble_on_sphere(X)
        b = assemble_on_sphere(reverse_orientation(X))
        assert a.Lambda_su3 == b.Lambda_su3, (q, K)
        assert a.C == b.C, (q, K)
        # Casson's lambda(-X) = -lambda(X); the surgery orientation counts the
        # connections with the sign of K
        assert b.lambda_su2 == -a.lambda_su2, (q, K)
        assert a.lambda_su2 == (1 if K > 0 else -1) * count_connections(q, K), (q, K)


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
                        D=Fraction(0), lambda_su2=Fraction(2))
    assert (r.lambda_su2, r.lambda_su3, r.Lambda_su3) == (2, Fraction(5, 4), Fraction(5, 4))
    with pytest.raises(Casson3Error):
        InvariantReport(q=3, K=1, A=Fraction(1, 3), B=Fraction(0), C=Fraction(0),
                        D=Fraction(0), lambda_su2=Fraction(2))


def test_report_json_dict():
    d = assemble(3, 1).to_json_dict()
    assert d["Lambda_su3"] == "1/4"
    assert d["four_Lambda_integral"] is True
    assert d["q"] == 3 and d["K"] == 1
