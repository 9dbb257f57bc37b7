import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casson3 import _kernels, dedekind, flat_moduli
from casson3.dedekind import (
    MAX_SNAP_ERROR,
    FloatEstimate,
    RhoValue,
    c_correction,
    cot_sum_exact,
    cot_sum_lattice,
    cot_sum_numerator,
    cotangent_numerator,
    floor_sums,
    rho_adjoint,
    rho_natural_float,
    snap_rho,
    verify_convention,
)
from casson3.errors import (
    ConventionMismatch,
    GradingFormulaUnavailable,
    SnapFailure,
    TooManyConnections,
)
from casson3.flat_moduli import enumerate_connections
from casson3.floer import r_invariant
from casson3.seifert import from_surgery, reverse_orientation


def _cot_sum_direct(A, e, n):
    # independent oracle: plain float summation straight off the definition
    total = 0.0
    for m in range(1, n):
        total += (math.cos(math.pi * A * m / n) / math.sin(math.pi * A * m / n)) \
            * (math.cos(math.pi * m / n) / math.sin(math.pi * m / n)) \
            * math.sin(math.pi * e * m / n) ** 2
    return total


def _cot_sum_numpy_trig(A, e, n):
    """Bit-level oracle: the float kernel's expression with every trig value
    evaluated per call, as the kernel computed it before its tables."""
    A %= n
    e %= n
    m = np.arange(1, n, dtype=np.int64)
    x1 = np.pi * ((A * m) % n) / n
    x2 = np.pi * m / n
    s = np.sin(np.pi * ((e * m) % n) / n)
    terms = (np.cos(x1) / np.sin(x1)) * (np.cos(x2) / np.sin(x2)) * s * s
    total = float(np.sum(terms))
    largest = max(float(np.max(np.abs(terms))), abs(total)) if n > 1 else 0.0
    return total, (n - 1) * _kernels.EPS * (largest + n)


def _cot_sum_convolution(A, e, n):
    """Independent exact oracle: the closed convolution form
    S = -(2 N(0) - N(1) - N(-1)) / (4n), N(s) = sum_r p_r p_{(-A r - e s) mod n},
    p = [n-1, 1, 3, ..., 2n-3], as an int64 dot product (no overflow for
    n < 10^6, since each product is below 4 n^2 and there are n of them)."""
    p = np.arange(-1, 2 * n - 2, 2, dtype=np.int64)
    p[0] = n - 1
    r = np.arange(n, dtype=np.int64)

    def N(s):
        return int(p @ p[(-A * r - e * s) % n])

    return Fraction(-(2 * N(0) - N(1) - N(-1)), 4 * n)


@st.composite
def _coprime_args(draw, max_n):
    n = draw(st.integers(2, max_n))
    A = draw(st.integers(-3 * n, 3 * n).filter(lambda A: math.gcd(A, n) == 1))
    e = draw(st.integers(-3 * n, 3 * n))
    return A, e, n


def _assert_table_matches_references(A, n, lattice_residues):
    """The O(n) table, the O(log n) floor-sum recursion and the O(n) floor
    loop are three derivations of M = -4n S(A, e, n)."""
    table = dedekind._numerator_table.__wrapped__(A % n, n)
    assert len(table) == n
    for e in range(n):
        M = cot_sum_numerator(A, e, n)
        assert type(M) is int
        assert M == table[e] == -4 * n * cot_sum_exact.__wrapped__(A, e, n), (A, e, n)
    for e in lattice_residues:
        assert table[e % n] == -4 * n * cot_sum_lattice.__wrapped__(A, e, n), (A, e, n)


def _units(n, count, seed):
    rng = random.Random(seed)
    units = [A for A in range(1, n) if math.gcd(A, n) == 1]
    return rng.sample(units, min(count, len(units)))


_PROPERTY = settings(deadline=None, max_examples=60)


@_PROPERTY
@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4), st.integers(1, 500),
       st.integers(0, 500))
def test_floor_sums_match_brute_force(a, b, c, n):
    F = [(a * i + b) // c for i in range(n)]
    assert floor_sums(a, b, c, n) == (sum(F), sum(i * x for i, x in enumerate(F)),
                                      sum(x * x for x in F))


@_PROPERTY
@given(_coprime_args(3000))
def test_exact_kernel_matches_convolution_and_lattice(args):
    exact = cot_sum_exact.__wrapped__(*args)
    assert exact == _cot_sum_convolution(*args) == cot_sum_lattice.__wrapped__(*args)


@_PROPERTY
@given(_coprime_args(3000))
def test_integer_kernel_is_minus_4n_times_the_reference_wrappers(args):
    # every residue of the drawn fiber against the recursion, the drawn one
    # against the loop too
    A, e, n = args
    _assert_table_matches_references(A, n, [e])


@settings(deadline=None, max_examples=25)
@given(_coprime_args(10**5))
def test_exact_kernel_within_float_bound_to_large_n(args):
    value, bound = _kernels.cot_sum_numpy(*args)
    assert abs(Fraction(value) - cot_sum_exact.__wrapped__(*args)) <= Fraction(bound)


@_PROPERTY
@given(_coprime_args(3000))
def test_float_memo_is_bit_identical(args):
    A, e, n = args
    assert _kernels.cot_sum(A, e, n) == _kernels.cot_sum_numpy(A % n, e % n, n)


@_PROPERTY
@given(_coprime_args(3000))
def test_table_kernel_is_bit_identical_to_trig(args):
    assert _kernels.cot_sum_numpy(*args) == _cot_sum_numpy_trig(*args)


@pytest.mark.parametrize("n", [2, 3, 1009, 1399])
def test_table_kernel_is_bit_identical_to_trig_at_fixed_moduli(n):
    rng = random.Random(n)
    for _ in range(20):
        A = rng.randrange(-3 * n, 3 * n)
        while math.gcd(A, n) != 1:
            A = rng.randrange(-3 * n, 3 * n)
        e = rng.randrange(-3 * n, 3 * n)
        assert _kernels.cot_sum_numpy(A, e, n) == _cot_sum_numpy_trig(A, e, n)


def test_kernel_caches_stay_bounded():
    # the per-residue memos: distinct raw keys at n = 7 are cheap to evaluate
    memos = (cot_sum_exact, cot_sum_lattice, _kernels.cot_sum)
    # the per-fiber tables, integer and float: one entry per distinct (A, n)
    tables = (dedekind._numerator_table, _kernels._fiber)
    try:
        for memo in memos:
            for e in range(_kernels.CACHE_SIZE + 100):
                memo(3, e, 7)
            info = memo.cache_info()
            assert info.maxsize == _kernels.CACHE_SIZE
            assert info.currsize <= info.maxsize
        for n in range(2, _kernels.TABLE_CACHE_SIZE + 12):
            for A in (1, n - 1):
                cot_sum_numerator(A, 1, n)
                _kernels.cot_sum_numpy(A, 1, n)
        for table in tables:
            info = table.cache_info()
            assert info.maxsize == _kernels.TABLE_CACHE_SIZE
            assert info.currsize <= info.maxsize
            assert info.misses > _kernels.TABLE_CACHE_SIZE
    finally:
        for cache in (*memos, *tables):
            cache.cache_clear()


@pytest.mark.parametrize("n", [2, 3, 5, 7, 9, 1009, 1399])
def test_numerator_table_on_every_residue(n):
    # every residue against the recursion; against the loop, every residue of
    # the small moduli and a spread of the large ones
    rng = random.Random(n)
    for A in _units(n, 3, n):
        loop = range(n) if n < 10 else [0, 1, n - 1, n // 2] + rng.sample(range(n), 16)
        _assert_table_matches_references(A, n, loop)


@pytest.mark.slow
@pytest.mark.parametrize("n", [1009, 1399])
def test_numerator_table_matches_the_loop_on_every_residue(n):
    _assert_table_matches_references(_units(n, 1, n)[0], n, range(n))


def test_numerator_table_refuses_a_modulus_past_int64():
    # 8 n^3 reaches 2^63 at n = 2^20; the largest modulus below is still exact
    n = 2 ** 20 - 1
    assert cot_sum_numerator(2, n // 2, n) == -4 * n * cot_sum_exact.__wrapped__(2, n // 2, n)
    dedekind._numerator_table.cache_clear()
    with pytest.raises(TooManyConnections, match="int64"):
        cot_sum_numerator(1, 5, 2 ** 20)


def test_a_corrupt_numerator_table_is_refused():
    # one wrong entry of the integer table moves rho by 1/n^2, far past the
    # float cross-check's bound, and leaves 2 a^2 mu off by (a/n)^2, which
    # 2 a^2 cannot divide
    X = from_surgery(5, -2)
    prod = X.fiber_product
    try:
        for c in enumerate_connections(X)[:4]:
            for n in X.a:
                table = dedekind._numerator_table((prod // n) % n, n)
                table[c.e % n] += 1
                try:
                    with pytest.raises(ConventionMismatch):
                        rho_adjoint(c)
                    with pytest.raises(GradingFormulaUnavailable):
                        r_invariant(X.a, c.e)
                finally:
                    table[c.e % n] -= 1
    finally:
        dedekind._numerator_table.cache_clear()
    assert rho_adjoint(c).exact == dedekind._rho_exact(X, c.e)


def test_kernel_paths_agree_randomized():
    rng = random.Random(11)
    small = (rng.choice([2, 3, 5, 7, 9, 11, 30, 35, 101, 109, 181]) for _ in range(60))
    # 1009 and 1399 lie in the a3 range of table-deep (q = 7, 9 at |K| 60..80)
    for n in itertools.chain(small, [1009, 1399] * 3):
        A = rng.randrange(1, n)
        while math.gcd(A, n) != 1:
            A = rng.randrange(1, n)
        e = rng.randrange(0, 3 * n)
        exact = cot_sum_exact(A, e, n)
        assert exact == cot_sum_lattice(A, e, n)
        assert abs(float(exact) - _cot_sum_direct(A, e, n)) < 1e-6 * max(1.0, abs(float(exact)))
        value, bound = _kernels.cot_sum(A, e, n)
        assert abs(Fraction(value) - exact) <= Fraction(bound)


def test_vanishing_sine_factors():
    # e = 0 mod every a_i kills each term; only the constant survives
    a = (2, 3, 5)
    e = 2 * 3 * 5
    assert cotangent_numerator(a, e) == 0
    natural = reverse_orientation(from_surgery(3, 1))  # Sigma(2,3,5), orientation +1
    assert natural.a == a and natural.orientation == 1
    assert dedekind._rho_exact(natural, e) == -3  # -2 * (3/2), global sign frozen


def test_rho_aggregate_q3():
    X = from_surgery(3, 1)
    total = sum(rho_adjoint(c).exact for c in enumerate_connections(X))
    assert total == Fraction(34, 3)  # 8 * C(3,1) since eps = -1


def test_rho_aggregate_q5():
    X = from_surgery(5, 1)
    total = sum(rho_adjoint(c).exact for c in enumerate_connections(X))
    assert total == Fraction(2266, 45)  # 8 * 1133/180


def test_c_correction_anchors():
    assert c_correction(from_surgery(3, 1)) == Fraction(17, 12)
    assert c_correction(from_surgery(3, -1)) == Fraction(-41, 84)
    assert c_correction(from_surgery(7, 2)) == Fraction(6611, 189)


def test_convention_verification_passes():
    assert verify_convention() is True


def test_paths_identical_on_sample():
    for q, K in [(3, 1), (5, -1), (7, 2), (9, -3)]:
        X = from_surgery(q, K)
        for c in enumerate_connections(X):
            ref = rho_adjoint(c).exact
            assert rho_adjoint(c, path="float").exact == ref


def test_float_within_error_bound_full_range():
    # every connection, q in {3,5,7,9}, |K| <= 10, and the pre-snap aggregate of C
    t0 = time.perf_counter()
    for q in (3, 5, 7, 9):
        for K in [k for k in range(-10, 11) if k]:
            X = from_surgery(q, K)
            aggregate = 0.0
            for c in enumerate_connections(X):
                rv = rho_adjoint(c)
                resid = abs(rv.exact - Fraction(rv.float_check.value))
                assert resid <= Fraction(rv.float_check.error_bound), (q, K, c.L)
                aggregate += rv.float_check.value
            C = float(c_correction(X))
            assert abs(-X.orientation / 8 * aggregate - C) <= 1e-8 * max(1.0, abs(C)), (q, K)
    assert time.perf_counter() - t0 < 30.0


def test_snap_denominators_divide_4a():
    # the snapped float aggregate of `c_correction` sums the points of (1/4a)Z
    # that `snap_rho` picks, each checked only against the float it came from;
    # they are the exact rho only because every exact rho lies on that lattice
    # (9120 connections here)
    for q in (3, 5, 7, 9, 21, 41):
        for K in (1, -1, 3, -4, 7):
            X = from_surgery(q, K)
            bound = 4 * X.fiber_product
            for c in enumerate_connections(X):
                assert bound % dedekind._rho_exact(X, c.e).denominator == 0, (q, K, c.L)


def test_kernel_work_is_refused_before_enumeration(monkeypatch):
    monkeypatch.setattr(flat_moduli, "MAX_KERNEL_WORK", 10)
    monkeypatch.setattr(dedekind, "enumerate_connections", None)  # a call raises TypeError
    with pytest.raises(TooManyConnections, match="44 units"):  # 4 connections, a3 = 11
        c_correction(from_surgery(3, 2))


def test_orientation_antisymmetry():
    for q, K in [(3, 1), (5, -1), (7, 3)]:
        X = from_surgery(q, K)
        Y = reverse_orientation(X)
        for cx, cy in zip(enumerate_connections(X), enumerate_connections(Y)):
            assert cx.L == cy.L
            assert rho_adjoint(cx).exact == -rho_adjoint(cy).exact
        assert c_correction(X) == c_correction(Y)


def test_snap_rho_rejects_wide_window():
    X = from_surgery(3, 1)
    with pytest.raises(SnapFailure):
        snap_rho(FloatEstimate(1.234, 2 * MAX_SNAP_ERROR), X)
    with pytest.raises(SnapFailure):
        # tight claimed error but value far from any admissible rational
        snap_rho(FloatEstimate(math.pi * 1e-3, 1e-12), X)


def test_snap_rho_returns_real_rho_values():
    # the float estimate of every connection singles out its exact rho
    for q, K in [(3, 1), (3, -1), (7, 2), (9, -12)]:
        for c in enumerate_connections(from_surgery(q, K)):
            rv = rho_adjoint(c)
            assert snap_rho(rv.float_check, c.host) == rv.exact


def test_snap_rho_refuses_a_window_that_reaches_a_neighbour():
    # any other rational of denominator <= D may lie 1/(d*D) from a point of
    # reduced denominator d, so err = 1e-6 is too wide for d = D but not d = 1
    X = from_surgery(9, 80)
    D = 4 * X.fiber_product
    assert D == 103_608
    r = Fraction(5 * D + 1, D)
    assert r.denominator == D
    assert snap_rho(FloatEstimate(float(r), 1e-11), X) == r
    with pytest.raises(SnapFailure):
        snap_rho(FloatEstimate(float(r), 1e-6), X)
    assert snap_rho(FloatEstimate(2.0, 1e-6), X) == 2


def test_float_estimate_total_tracks_components():
    # reference: -3 - 2 * sum_i (2/a_i) S(a/a_i, e, a_i) from the rational wrapper
    X = from_surgery(9, -4)
    prod = X.fiber_product
    for c in enumerate_connections(X)[:5]:
        est = rho_natural_float(X.a, c.e)
        reference = -3 - 2 * sum(Fraction(2, ai) * cot_sum_exact(prod // ai, c.e, ai)
                                 for ai in X.a)
        assert abs(Fraction(est.value) - reference) <= Fraction(est.error_bound)


def test_exact_rho_is_cross_checked_against_the_float_kernel(monkeypatch):
    # an integer kernel off by one moves every rho by sum_i 1/a_i^2, far
    # beyond the float bound, so the cross-check must refuse it
    true_numerator = dedekind.cot_sum_numerator
    monkeypatch.setattr(dedekind, "cot_sum_numerator",
                        lambda A, e, n: true_numerator(A, e, n) + 1)
    for c in enumerate_connections(from_surgery(5, -2)):
        with pytest.raises(ConventionMismatch):
            rho_adjoint(c)


def test_rho_value_cross_check_is_inclusive_at_the_bound():
    gap = 2.0 ** -20
    for x in (0.25 + gap, 0.25 - gap):  # |1/4 - x| is exactly the double gap
        RhoValue(Fraction(1, 4), FloatEstimate(x, gap))
        with pytest.raises(ConventionMismatch):
            RhoValue(Fraction(1, 4), FloatEstimate(x, math.nextafter(gap, 0.0)))


def test_rho_value_refuses_a_non_finite_cross_check():
    # refused when the estimate is built, before the RhoValue exists
    for value, bound in ((math.nan, 1e-9), (math.inf, 1e-9), (0.25, math.inf)):
        with pytest.raises(ConventionMismatch):
            RhoValue(Fraction(1, 4), FloatEstimate(value, bound))


def test_integer_aggregate_matches_the_fraction_sum():
    for q, K in [(3, 1), (5, -2), (7, 3), (9, -4), (21, 2)]:
        for X in (from_surgery(q, K), reverse_orientation(from_surgery(q, K))):
            for path in ("float", "exact"):
                plain = sum((rho_adjoint(c, path=path).exact for c in enumerate_connections(X)),
                            Fraction(0))
                assert dedekind._aggregate(X, path) == Fraction(-X.orientation, 8) * plain


def test_integer_aggregate_refuses_a_foreign_denominator(monkeypatch):
    X = from_surgery(3, 1)
    assert (4 * X.fiber_product ** 2) % 7 != 0
    monkeypatch.setattr(dedekind, "rho_adjoint",
                        lambda c, path: RhoValue(Fraction(1, 7), FloatEstimate(1 / 7, 1e-15)))
    with pytest.raises(ConventionMismatch):
        dedekind._aggregate(X, "exact")


def _random_cases(count, seed):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.choice([2, 3, 5, 7, 11, 30, 101, 109, 181])
        A = rng.randrange(1, n)
        while math.gcd(A, n) != 1:
            A = rng.randrange(1, n)
        cases.append((A, rng.randrange(0, 2 * n), n))
    return cases


def test_numpy_kernel_matches_exact():
    for A, e, n in _random_cases(40, 1):
        value, bound = _kernels.cot_sum(A, e, n)
        assert abs(Fraction(value) - cot_sum_exact(A, e, n)) <= Fraction(bound)


# the stdlib Fraction guarantees every exact value in the package rests on:
# lowest terms, a positive denominator, and arithmetic that never rounds
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
