"""Tests of RationalPoly arithmetic and formatting, and example and property
tests of RationalPoly and fit_and_verify, including fits of Lambda and C."""
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from casson3.assembly import reference_Lambda
from casson3.dedekind import c_correction
from casson3.errors import DegreeExceeded
from casson3.polynomial import MAX_FIT_DEGREE, RationalPoly, fit_and_verify
from casson3.seifert import from_surgery

_PROPERTY = settings(max_examples=30, deadline=None)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonzero = rationals.filter(bool)
polys = st.builds(RationalPoly, st.lists(rationals, max_size=6).map(tuple))


@_PROPERTY
@given(polys, polys, rationals)
def test_evaluation_is_a_ring_map(a, b, x):
    assert (a + b)(x) == a(x) + b(x)
    assert (a - b)(x) == a(x) - b(x)
    assert (a * b)(x) == a(x) * b(x)


@_PROPERTY
@given(polys, st.integers(0, 3))
def test_zero_padding_is_invisible(a, after):
    padded = RationalPoly(a.coeffs + (0,) * after)
    assert padded == a and hash(padded) == hash(a)
    assert a - a == RationalPoly.zero()


@_PROPERTY
@given(st.data(), st.integers(0, 4))
def test_fit_recovers_polynomial(data, d):
    coeffs = data.draw(st.lists(rationals, min_size=d, max_size=d)) + [data.draw(nonzero)]
    p = RationalPoly(tuple(coeffs))
    xs = data.draw(st.lists(st.integers(-20, 20), min_size=d + 3, max_size=d + 3, unique=True))
    assert fit_and_verify({x: p(x) for x in xs}) == p


def test_a_failing_property_reports_its_example(tmp_path):
    # Hypothesis imports libcst to report a falsifying example; under the
    # suite's warning filters that import must not abort the run
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n"
        "def test_runs_after():\n"
        "    pass\n")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(pyproject),
                           "-p", "no:cacheprovider", "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout


def test_polynomial_arithmetic():
    a = RationalPoly((1, 0, 1))
    b = RationalPoly((1, -1))
    assert a + (-a) == RationalPoly.zero()
    assert a * b == RationalPoly((1, -1, 1, -1))
    assert [(a * b)[n] for n in range(-1, 5)] == [0, 1, -1, 1, -1, 0]
    assert (a * b).degree == 3 and RationalPoly.zero().degree == -1
    assert list((a * b).terms()) == [(3, -1), (2, 1), (1, -1), (0, 1)]
    # canonical form: no trailing zeros, and the zero polynomial is ()
    assert RationalPoly((0, 0, Fraction(1, 2), 0)) == RationalPoly((0, 0, Fraction(1, 2)))
    assert RationalPoly((Fraction(1, 2), 0, 0)).coeffs == (Fraction(1, 2),)
    assert RationalPoly((0, 0)) == RationalPoly.zero() and RationalPoly.zero().coeffs == ()


def test_rational_poly_format():
    assert RationalPoly((0, Fraction(-9, 4), Fraction(5, 2))).format("K") \
        == "5/2*K^2 - 9/4*K"
    assert RationalPoly((3, 0, Fraction(-1, 2))).format("K") == "-1/2*K^2 + 3"
    assert RationalPoly((-1, 1)).format("x") == "x - 1"
    assert RationalPoly((0, 0, 0, -1)).format("K") == "-K^3"
    assert RationalPoly.zero().format("K") == "0"


def test_vandermonde_quadratic_closed_form():
    pts = {1: Fraction(1, 4), 2: Fraction(11, 2), 3: Fraction(63, 4)}
    poly = fit_and_verify({**pts, 4: Fraction(31)})
    assert poly.coeffs == (Fraction(0), Fraction(-9, 4), Fraction(10, 4))
    for x, y in pts.items():
        assert poly(x) == y


def test_vandermonde_zero_poly():
    assert fit_and_verify({0: 0, 1: 0}) == RationalPoly.zero()


def test_vandermonde_cubic():
    # oracle: evaluate K^3 + K by hand at 1, 2, 3, -1, -2 -> 2, 10, 30, -2, -10
    pts = {1: 2, 2: 10, 3: 30, -1: -2, -2: -10}
    poly = fit_and_verify(pts)
    assert poly.coeffs == (Fraction(0), Fraction(1), Fraction(0), Fraction(1))


def test_fit_constant():
    assert fit_and_verify({1: Fraction(5), 2: Fraction(5), 3: Fraction(5)}).coeffs \
        == (Fraction(5),)


def test_needs_enough_samples():
    for values in ({}, {1: 1}):
        with pytest.raises(ValueError):
            fit_and_verify(values)


def test_fit_stops_at_max_degree():
    # a polynomial of degree MAX_FIT_DEGREE still fits; one degree more is
    # refused although enough samples would check it
    top = RationalPoly((3,) + (0,) * (MAX_FIT_DEGREE - 1) + (1,))
    assert fit_and_verify({x: top(x) for x in range(MAX_FIT_DEGREE + 4)}) == top
    over = top * RationalPoly((0, 1))
    with pytest.raises(DegreeExceeded, match=f"degree at most {MAX_FIT_DEGREE}"):
        fit_and_verify({x: over(x) for x in range(MAX_FIT_DEGREE + 4)})


def test_fit_refuses_random_samples_quickly():
    # samples on no low-degree polynomial cost MAX_FIT_DEGREE + 1 levels, not
    # one level per sample
    rng = random.Random(1000)
    values = {x: rng.randint(-1000, 1000) for x in range(1000)}
    t0 = time.perf_counter()
    with pytest.raises(DegreeExceeded, match="MAX_FIT_DEGREE"):
        fit_and_verify(values)
    assert time.perf_counter() - t0 < 1.0


def test_fit_lambda_q3():
    values = {K: reference_Lambda(3, K) for K in range(1, 6)}
    poly = fit_and_verify(values)
    assert poly.coeffs == (Fraction(0), Fraction(-9, 4), Fraction(10, 4))


def test_fit_scaled_C_is_cubic():
    # 12(6K-1) * C(3,K) on K = 1..6, computed from the cotangent sums
    values = {
        K: 12 * (6 * K - 1) * c_correction(from_surgery(3, K))
        for K in range(1, 7)
    }
    poly = fit_and_verify(values)
    assert poly.coeffs == (Fraction(0), Fraction(-11), Fraction(84), Fraction(12))


def test_degree_too_low_raises():
    # each stored Lambda branch has least degree 2; one perturbed sample
    # leaves no degree below 5 that passes through all six
    for q in (3, 5, 7, 9):
        for branch in (range(1, 7), range(-6, 0)):
            values = {K: reference_Lambda(q, K) for K in branch}
            assert fit_and_verify(values).degree == 2
            values[branch[3]] += Fraction(1, 4)
            with pytest.raises(DegreeExceeded):
                fit_and_verify(values)


def test_branches_differ():
    for q in (3, 5, 7, 9):
        plus = fit_and_verify({K: reference_Lambda(q, K) for K in range(1, 5)})
        minus = fit_and_verify({K: reference_Lambda(q, K) for K in range(-4, 0)})
        assert plus != minus


def test_negative_branch_fit():
    values = {K: reference_Lambda(5, K) for K in range(-6, 0)}
    poly = fit_and_verify(values)
    assert poly.coeffs == (Fraction(0), Fraction(-85, 4), Fraction(126, 4))


def test_vandermonde_random_roundtrip():
    # random data either lies on a fit checked by at least one sample, or
    # is refused
    rng = random.Random(99)
    fitted = 0
    for _ in range(200):
        xs = rng.sample(range(-30, 30), rng.randint(2, 6))
        ys = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in xs]
        try:
            poly = fit_and_verify(dict(zip(xs, ys)))
        except DegreeExceeded:
            continue
        fitted += 1
        assert poly.degree <= len(xs) - 2
        for x, y in zip(xs, ys):
            assert poly(x) == y
    assert 0 < fitted < 200
