import itertools
import math
import operator
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from casson3 import _kernels, dedekind, flat_moduli
from casson3._kernels import cotangent_numerator
from casson3.assembly import reference_C
from casson3.dedekind import (
    MAX_SNAP_ERROR,
    FloatEstimate,
    RhoValue,
    c_correction,
    cot_sum_exact,
    cot_sum_lattice,
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
from casson3.flat_moduli import FlatConnection, enumerate_connections
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
    """Bit-level oracle: the float kernel's FFT expression for one residue,
    with each weight's two cotangents evaluated per call at their own
    argument pi*k/n, k = min(r, n - r), and signed by which half r lies in,
    instead of gathered from the fiber's mirrored cotangent table."""
    A %= n
    e %= n

    def cot(r):
        x = np.pi * np.minimum(r, n - r) / n
        return np.where(r <= n // 2, 1.0, -1.0) * (np.cos(x) / np.sin(x))

    m = np.arange(1, n, dtype=np.int64)
    w = np.zeros(n)
    w[1:] = cot(A * m % n) * cot(m)
    F = np.fft.fft(w).real
    bound = 8 * _kernels.EPS * (math.log2(n) * math.sqrt(n) * float(np.linalg.norm(w)) + n)
    return (F[0] - F[e]) / 2, bound


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
    table = _kernels._numerator_table.__wrapped__(A % n, n)
    assert len(table) == n
    for e in range(n):
        M = _numerator(A, e, n)
        assert type(M) is int
        assert M == table[e] == -4 * n * cot_sum_exact.__wrapped__(A, e, n), (A, e, n)
    for e in lattice_residues:
        assert table[e % n] == -4 * n * cot_sum_lattice.__wrapped__(A, e, n), (A, e, n)


def _numerator(A, e, n):
    """M = -4n * S(A, e, n), read off the cached integer table of the fiber."""
    return _kernels._numerator_table(A % n, n)[e % n]


def _clear_integer_tables():
    """Drop every cached plan and integer table, so a corrupted table is
    never read again."""
    _kernels.fiber_plan.cache_clear()
    _kernels._numerator_table.cache_clear()


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
    # a raw key and its residues read the same entry of the same fiber table
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


def _assert_float_within_a_quarter_of_its_bound(A, residues, n):
    for e in residues:
        value, bound = _kernels.cot_sum(A, e, n)
        exact = Fraction(-_numerator(A, e, n), 4 * n)
        assert abs(Fraction(value) - exact) <= Fraction(bound) / 4, (A, e, n)


def test_float_table_within_a_quarter_of_its_bound():
    # every residue of every fiber with n <= 60, then seeded residues of large
    # moduli (primes, a power of two, an a3 near the kernel-work bound), each
    # against the exact integer table; A = 1 has the largest weights
    for n in range(2, 61):
        for A in range(1, n):
            if math.gcd(A, n) == 1:
                _assert_float_within_a_quarter_of_its_bound(A, range(n), n)
    for n in (1009, 1399, 4096, 10007, 54767):
        rng = random.Random(n)
        for A in [1, n - 1, *_units(n, 3, n)]:
            residues = [0, 1, n // 2, n - 1, *rng.sample(range(n), 40)]
            _assert_float_within_a_quarter_of_its_bound(A, residues, n)


def test_float_kernel_refuses_a_fiber_with_a_common_factor():
    # gcd(A, n) > 1 puts the pole cot(0) into a weight; every residue of the
    # fiber, not just those that meet the pole, is then no number
    for A, e, n in [(2, 1, 4), (2, 0, 4), (3, 2, 9), (6, 5, 10)]:
        value, bound = _kernels.cot_sum(A, e, n)
        assert math.isnan(value) and math.isnan(bound), (A, e, n)
        with pytest.raises(ConventionMismatch):
            FloatEstimate(value, bound)


def test_kernel_caches_stay_bounded():
    # the reference memos: distinct raw keys at n = 7 are cheap to evaluate
    memos = (cot_sum_exact, cot_sum_lattice)
    # the per-fiber tables, integer and float: one entry per distinct (A, n)
    tables = (_kernels._numerator_table, _kernels._fiber)
    try:
        for memo in memos:
            for e in range(dedekind.CACHE_SIZE + 100):
                memo(3, e, 7)
            info = memo.cache_info()
            assert info.maxsize == dedekind.CACHE_SIZE
            assert info.currsize <= info.maxsize
        for n in range(2, _kernels.TABLE_CACHE_SIZE + 12):
            for A in (1, n - 1):
                _kernels._numerator_table(A, n)
                _kernels.cot_sum(A, 1, n)
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
    assert _numerator(2, n // 2, n) == -4 * n * cot_sum_exact.__wrapped__(2, n // 2, n)
    _kernels._numerator_table.cache_clear()
    with pytest.raises(TooManyConnections, match="int64"):
        _kernels._numerator_table(1, 2 ** 20)


def test_a_corrupt_numerator_table_is_refused():
    # one wrong entry of the integer table moves rho by 1/n^2, far past the
    # float cross-check's bound, and leaves 2 a^2 mu off by (a/n)^2, which
    # 2 a^2 cannot divide
    X = from_surgery(5, -2)
    try:
        for c in enumerate_connections(X)[:4]:
            for _, n, _, _, table in _kernels.fiber_plan(X.a)[0]:
                table[c.e % n] += 1
                try:
                    with pytest.raises(ConventionMismatch):
                        rho_adjoint(c)
                    with pytest.raises(GradingFormulaUnavailable):
                        r_invariant(X.a, c.e)
                finally:
                    table[c.e % n] -= 1
    finally:
        _clear_integer_tables()
    square = X.fiber_product ** 2
    N = cotangent_numerator(_kernels.fiber_plan(X.a), c.e)
    assert rho_adjoint(c).exact == Fraction(X.orientation * (N - 3 * square), square)


def test_the_plan_reads_the_shared_integer_tables():
    # spheres (5, 1) and (5, 6) share their fibers of modulus 2 and 5, so
    # both plans read one table object per shared fiber, the one the table
    # cache returns; a corrupted entry reaches rho until both caches are
    # cleared, and never after
    X, Y = from_surgery(5, 1), from_surgery(5, 6)
    c = enumerate_connections(X)[0]
    want = rho_adjoint(c).exact
    _clear_integer_tables()
    try:
        plan_x, plan_y = _kernels.fiber_plan(X.a)[0], _kernels.fiber_plan(Y.a)[0]
        for A, n, _, _, table in plan_x + plan_y:
            assert table is _kernels._numerator_table(A, n), n
        assert plan_x[0][4] is plan_y[0][4] and plan_x[1][4] is plan_y[1][4]
        _, n, _, _, table = plan_x[2]
        table[c.e % n] += 1
        with pytest.raises(ConventionMismatch):
            rho_adjoint(c)
        _clear_integer_tables()
        assert rho_adjoint(c).exact == want
    finally:
        _clear_integer_tables()


def test_each_call_reads_the_plan_once(monkeypatch):
    # rho_adjoint on either path, snapped or escalated, and r_invariant each
    # look the sphere's plan up once and pass it down
    def reads_during(call):
        info = _kernels.fiber_plan.cache_info()
        before = info.hits + info.misses
        result = call()
        info = _kernels.fiber_plan.cache_info()
        return info.hits + info.misses - before, result

    X = from_surgery(7, -3)
    prod = X.fiber_product
    for c in enumerate_connections(X)[:3]:
        assert reads_during(lambda: rho_adjoint(c, path="float"))[0] == 1
        assert reads_during(lambda: rho_adjoint(c, path="exact"))[0] == 1
        assert reads_during(lambda: r_invariant(X.a, c.e))[0] == 1

    def escalate(estimate, D):
        raise SnapFailure("forced")

    snapped = rho_adjoint(c, path="float")
    assert snapped.denominator == 4 * prod
    monkeypatch.setattr(dedekind, "snap_rho", escalate)
    reads, escalated = reads_during(lambda: rho_adjoint(c, path="float"))
    assert reads == 1 and escalated.denominator == prod ** 2
    assert escalated.exact == snapped.exact


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
    assert cotangent_numerator(_kernels.fiber_plan(a), e) == 0
    natural = reverse_orientation(from_surgery(3, 1))  # Sigma(2,3,5), orientation +1
    assert natural.a == a and natural.orientation == 1
    # -2 * (3/2) over a^2, global sign frozen
    rho = rho_adjoint(FlatConnection(L=(1, 1, 1), t_index=0, e=e, host=natural))
    square = natural.fiber_product ** 2
    assert (rho.numerator, rho.denominator) == (-3 * square, square)


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


# (sign, prefactor numerator, sine-argument factor) of the cotangent total in
# the grading mu = 2 e^2/a + sign * sum_i (pref/a_i) S(a/a_i, arg * e, a_i)
_RHO_CONVENTIONS = {
    "frozen": (1, 2, 1),
    "sign flipped": (-1, 2, 1),
    "prefactor 1/a_i": (1, 1, 1),
    "prefactor 4/a_i": (1, 4, 1),
    "sine argument 2e": (1, 2, 2),
    "sine argument e/2": (1, 2, 0.5),
}


def test_grading_integrality_forces_the_rho_convention():
    # every connection of seven small cells and a seeded sample of wider ones:
    # the frozen convention makes each grading an integer (the one
    # r_invariant computes), and each declared alternative makes none of them
    rng = random.Random(1010)
    cells = [(3, 1), (3, -1), (3, 2), (5, -2), (5, 3), (7, 1), (9, -2)]
    sample = [c for q, K in cells for c in enumerate_connections(from_surgery(q, K))]
    wide = [(q, K) for q in range(3, 16, 2) for K in range(-5, 6) if K]
    extra = [c for q, K in rng.sample(wide, 6) for c in enumerate_connections(from_surgery(q, K))]
    sample += rng.sample(extra, 60)
    for c in sample:
        a = c.host.a
        prod = a[0] * a[1] * a[2]
        for name, (sign, pref, arg) in _RHO_CONVENTIONS.items():
            mu = 2 * c.e * c.e / prod + sign * sum(
                pref / ai * _cot_sum_direct(prod // ai, arg * c.e, ai) for ai in a)
            integral = abs(mu - round(mu)) < 1e-6
            assert integral == (name == "frozen"), (name, c.L, a, mu)
            if integral:
                assert round(mu) == r_invariant(a, c.e)


def test_convention_verification_passes():
    assert verify_convention() is True


def test_a_wrong_anchor_is_refused(monkeypatch):
    monkeypatch.setattr(dedekind, "_ANCHORS", ((3, 1, Fraction(17, 13)),))
    verify_convention.cache_clear()
    with pytest.raises(ConventionMismatch, match=r"anchor C\(3,1\) = 17/13 but computed 17/12"):
        verify_convention()
    monkeypatch.undo()
    # later tests see the cached True of the real anchors
    assert verify_convention() is True


def test_paths_identical_on_sample():
    for q, K in [(3, 1), (5, -1), (7, 2), (9, -3)]:
        X = from_surgery(q, K)
        for c in enumerate_connections(X):
            ref = rho_adjoint(c).exact
            assert rho_adjoint(c, path="float").exact == ref
    with pytest.raises(ValueError, match="path must be one of"):
        rho_adjoint(c, path="fast")


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
            plan = _kernels.fiber_plan(X.a)
            square = plan[2]
            for c in enumerate_connections(X):
                N = cotangent_numerator(plan, c.e)
                rho = Fraction(X.orientation * (N - 3 * square), square)
                assert bound % rho.denominator == 0, (q, K, c.L)


def test_c_is_refused_before_enumeration(monkeypatch):
    monkeypatch.setattr(flat_moduli, "MAX_CONNECTIONS", 3)
    # a call of any of these raises TypeError: no connection and no kernel table is built
    for module, name in ((flat_moduli, "_enumerate"), (_kernels, "_numerator_table"),
                         (_kernels, "_fiber")):
        monkeypatch.setattr(module, name, None)
    with pytest.raises(TooManyConnections, match="4 flat connections"):
        c_correction(from_surgery(3, 2))


def test_a_modulus_past_the_tables_is_refused_before_any_fft():
    # a hand-built connection skips the connection budget; its a3 = 5 999 999
    # would take a 6 M-point FFT and about 1 GB before the integer table refused it
    X = from_surgery(3, 10 ** 6)
    c = FlatConnection(L=(1, 1, 1), t_index=1, e=0, host=X)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyConnections, match="5999999"):
            rho_adjoint(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.a[2] == 5_999_999 and peak < 1_000_000


def test_orientation_antisymmetry():
    for q, K in [(3, 1), (5, -1), (7, 3)]:
        X = from_surgery(q, K)
        Y = reverse_orientation(X)
        for cx, cy in zip(enumerate_connections(X), enumerate_connections(Y)):
            assert cx.L == cy.L
            assert rho_adjoint(cx).exact == -rho_adjoint(cy).exact
        assert c_correction(X) == c_correction(Y)


def test_snap_rho_rejects_wide_window():
    D = 4 * from_surgery(3, 1).fiber_product
    with pytest.raises(SnapFailure):
        snap_rho(FloatEstimate(1.234, 2 * MAX_SNAP_ERROR), D)
    with pytest.raises(SnapFailure):
        # tight claimed error but value far from any admissible rational
        snap_rho(FloatEstimate(math.pi * 1e-3, 1e-12), D)


def test_snap_rho_returns_real_rho_values():
    # the float estimate of every connection singles out its exact rho
    for q, K in [(3, 1), (3, -1), (7, 2), (9, -12)]:
        for c in enumerate_connections(from_surgery(q, K)):
            rv = rho_adjoint(c)
            D = 4 * c.host.fiber_product
            assert snap_rho(rv.float_check, D) == rv.exact * D


def test_snap_rho_refuses_a_window_that_reaches_a_neighbour():
    # any other rational of denominator <= D may lie 1/(d*D) from a point of
    # reduced denominator d, so err = 1e-6 is too wide for d = D but not d = 1
    X = from_surgery(9, 80)
    D = 4 * X.fiber_product
    assert D == 103_608
    r = Fraction(5 * D + 1, D)
    assert r.denominator == D
    assert snap_rho(FloatEstimate(float(r), 1e-11), D) == r * D
    with pytest.raises(SnapFailure):
        snap_rho(FloatEstimate(float(r), 1e-6), D)
    assert snap_rho(FloatEstimate(2.0, 1e-6), D) == 2 * D


def test_float_estimate_total_tracks_components():
    # reference: -3 - 2 * sum_i (2/a_i) S(a/a_i, e, a_i) from the rational wrapper
    X = from_surgery(9, -4)
    prod = X.fiber_product
    for c in enumerate_connections(X)[:5]:
        est = rho_natural_float(_kernels.fiber_plan(X.a), c.e, 1)
        reference = -3 - 2 * sum(Fraction(2, ai) * cot_sum_exact(prod // ai, c.e, ai)
                                 for ai in X.a)
        assert abs(Fraction(est.value) - reference) <= Fraction(est.error_bound)


def _sampled_connections(seed, spheres=16, per_sphere=16):
    """Seeded admissible connections on spheres of both orientations with
    a3 = 2q|K| +- 1 up to about 10^4, drawn without enumerating the sphere."""
    rng = random.Random(seed)
    for _ in range(spheres):
        q = rng.randrange(3, 62, 2)
        K = rng.choice((1, -1)) * rng.randint(1, 10 ** 4 // (2 * q))
        X0 = from_surgery(q, K)
        _, a2, a3 = X0.a
        prod = X0.fiber_product
        for X in (X0, reverse_orientation(X0)):
            drawn = 0
            while drawn < per_sphere:
                L2, L3 = rng.randrange(1, a2), rng.randrange(1, a3)
                if flat_moduli.is_admissible(X, L2, L3):
                    drawn += 1
                    e = prod // 2 + L2 * (prod // a2) + L3 * (prod // a3)
                    yield FlatConnection(L=(1, L2, L3), t_index=0, e=e, host=X)


def test_fiber_plan_matches_the_sums_it_replaces():
    # the plan's readers against the fiber sums restated without it: the
    # integer N, the exact rho as orientation * (N - 3 a^2) over a^2, the
    # snapped rho over 4a, and the float estimate bit for bit, orientation
    # sign applied
    snapped = 0
    for c in _sampled_connections(26):
        X, e = c.host, c.e
        prod = X.fiber_product
        want = sum(-4 * ai * cot_sum_exact(prod // ai, e, ai) * (prod // ai) ** 2 for ai in X.a)
        plan = _kernels.fiber_plan(X.a)
        assert cotangent_numerator(plan, e) == want, (X, c.L)
        rho = X.orientation * (want - 3 * prod ** 2)
        exact = rho_adjoint(c, path="exact")
        assert (exact.numerator, exact.denominator) == (rho, prod ** 2), (X, c.L)
        float_path = rho_adjoint(c, path="float")
        assert float_path.exact == Fraction(rho, prod ** 2), (X, c.L)
        if float_path.denominator == 4 * prod:  # else escalated to the exact numerator
            snapped += 1
        else:
            assert float_path.numerator == rho, (X, c.L)
        total = total_err = 0.0
        for ai in X.a:
            v, b = _kernels.cot_sum(prod // ai, e, ai)
            total += (2.0 / ai) * v
            total_err += (2.0 / ai) * b
        value = X.orientation * (-3.0 - 2.0 * total)
        bound = 2.0 * total_err + 8 * _kernels.EPS * (3.0 + 2.0 * abs(total))
        for est in (rho_natural_float(plan, e, X.orientation), exact.float_check,
                    float_path.float_check):
            assert (est.value.hex(), est.error_bound.hex()) == (value.hex(), bound.hex()), (X, c.L)
    assert snapped > 0
    info = _kernels.fiber_plan.cache_info()
    assert info.maxsize == _kernels.TABLE_CACHE_SIZE
    assert info.currsize <= info.maxsize


def test_exact_rho_is_cross_checked_against_the_float_kernel():
    # an integer kernel off by one moves every rho by sum_i 1/a_i^2, far
    # beyond the float bound, so the cross-check must refuse it
    X = from_surgery(5, -2)
    try:
        for *_, table in _kernels.fiber_plan(X.a)[0]:
            for r in range(len(table)):
                table[r] += 1
        for c in enumerate_connections(X):
            with pytest.raises(ConventionMismatch):
                rho_adjoint(c)
    finally:
        _clear_integer_tables()


def test_rho_value_cross_check_is_inclusive_at_the_bound():
    gap = 2.0 ** -20
    tight = math.nextafter(gap, 0.0)  # one ulp past the bound
    for x in (0.25 + gap, 0.25 - gap):  # |1/4 - x| is exactly the double gap
        for p, q in ((1, 4), (3, 12)):  # unreduced or not, the same test
            RhoValue(p, q, FloatEstimate(x, gap))
            with pytest.raises(ConventionMismatch) as refused:
                RhoValue(p, q, FloatEstimate(x, tight))
            assert str(refused.value) == (f"float cross-check {x!r} disagrees with exact 1/4 "
                                          f"beyond its error bound {tight!r}")


def test_rho_value_refuses_a_non_finite_cross_check():
    # refused when the estimate is built, before the RhoValue exists
    for value, bound in ((math.nan, 1e-9), (math.inf, 1e-9), (-math.inf, 1e-9),
                         (0.25, math.inf), (0.25, math.nan), (0.25, -1e-9)):
        with pytest.raises(ConventionMismatch) as refused:
            RhoValue(1, 4, FloatEstimate(value, bound))
        assert str(refused.value) == (f"float estimate needs a finite value and a finite "
                                      f"bound >= 0, got {value!r} +- {bound!r}")


def test_records_are_slotted_values():
    X = from_surgery(7, 3)
    fresh = flat_moduli._enumerate.__wrapped__(X, flat_moduli.is_admissible)
    memo = enumerate_connections(X)
    c = memo[0]
    est = FloatEstimate(0.25, 1e-12)
    for record in (c, est, RhoValue(1, 4, est), rho_adjoint(c, path="float"),
                   rho_adjoint(c, path="exact"), rho_adjoint(c).float_check):
        assert not hasattr(record, "__dict__"), type(record)
    # a fresh enumeration equals the memo record by record, as values
    assert len(fresh) == len(memo) > 1
    for f, m in zip(fresh, memo):
        assert f is not m and f == m and hash(f) == hash(m)
    assert set(fresh) == set(memo) and len(set(memo)) == len(memo)
    # built by keyword or by position, the same value
    fields = dict(L=c.L, t_index=c.t_index, e=c.e, host=c.host)
    assert FlatConnection(**fields) == c == FlatConnection(c.L, c.t_index, c.e, c.host)
    assert repr(FlatConnection(**fields)) == (f"FlatConnection(L={c.L!r}, t_index={c.t_index!r}, "
                                              f"e={c.e!r}, host={c.host!r})")
    # unequal when any one field differs
    for name, other in (("L", (1, c.L[1], c.L[2] + 2)), ("t_index", c.t_index + 1),
                        ("e", c.e + 1), ("host", reverse_orientation(X))):
        changed = FlatConnection(**{**fields, name: other})
        assert changed != c and changed not in set(memo), name
    assert c != (c.L, c.t_index, c.e, c.host)


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
                        lambda c, path: RhoValue(1, 7, FloatEstimate(1 / 7, 1e-15)))
    with pytest.raises(ConventionMismatch):
        dedekind._aggregate(X, "exact")


def _residue_counts(X):
    """(number of connections, per fiber (residues, counts)): how many
    connections have e = r (mod a_i) for each residue r that occurs.  On every
    connection e = 1 (mod 2), e = 2 a3 L2 (mod q) and e = 2q L3 (mod a3), so
    with n2(L2) the size of L2's L3 interval and n3(L3) the number of intervals
    holding L3, the counts are n, n2 and n3.  The a3 fiber's pair is lazy.  The
    intervals are the computation's own walk `flat_moduli.l3_intervals`, which
    test_flat_moduli checks against oracles that share none of its code: the
    brute-force scan, the interval sizes and the interlacing count."""
    _, q, a3 = X.a
    first = 2 - abs(X.K) % 2  # L3 = K (mod 2)
    residues2, counts2 = [], []
    diff = [0] * (a3 + 2)
    for L2, lo, hi in flat_moduli.l3_intervals(X):
        residues2.append(2 * a3 * L2 % q)
        counts2.append((hi - lo) // 2 + 1)
        diff[lo] += 1
        diff[hi + 2] -= 1
    n = sum(counts2)
    residues3 = (2 * q * L3 % a3 for L3 in range(first, a3, 2))
    return n, (([1], [n]), (residues2, counts2),
               (residues3, itertools.accumulate(diff[first:a3:2])))


def _per_fiber_C(X):
    """(number of connections, C) from per-fiber residue counts, sharing
    `_kernels.fiber_plan` and, through `_residue_counts`, the L3 walk
    `flat_moduli.l3_intervals` with the computation:
    sum N = sum_i c_i sum_r n_i(r) M_i[r] over the counts of `_residue_counts`,
    and C = -(sum N - 3 n a^2) / (8 a^2) in either orientation."""
    plan, _, square = _kernels.fiber_plan(X.a)
    n, fibers = _residue_counts(X)
    total = sum(c * sum(map(operator.mul, counts, map(M.__getitem__, residues)))
                for (_, _, c, _, M), (residues, counts) in zip(plan, fibers))
    return n, Fraction(-(total - 3 * n * square), 8 * square)


def _assert_float_fibers_bound_the_integer_sums(X):
    """Per fiber (A, m) of X, with the residue counts n(r) of `_residue_counts`:
    sum_r n(r) S(r), read off the FFT table `_kernels._fiber(A, m)` and summed
    exactly, is within sum_r n(r) times that table's one error bound of the
    integer value -sum_r n(r) M(r) / (4m)."""
    plan = _kernels.fiber_plan(X.a)[0]
    for (A, m, _, _, M), (residues, counts) in zip(plan, _residue_counts(X)[1]):
        S, bound = _kernels._fiber(A, m)
        num, den = 0, 1  # the float sum, exactly: num / den with den a power of 2
        exact = total = 0
        for r, k in zip(residues, counts):
            p, d = S[r].as_integer_ratio()
            if d > den:
                num, den = num * (d // den), d
            num += k * p * (den // d)
            exact += k * M[r]
            total += k
        # |num/den + exact/(4m)| <= total * bound, cleared of denominators
        b_num, b_den = bound.as_integer_ratio()
        assert abs(4 * m * num + exact * den) * b_den <= total * b_num * 4 * m * den, (X, m)


def test_per_fiber_c_matches_the_computation():
    for q in range(3, 26, 2):
        for K in (*range(-8, 0), *range(1, 9)):
            X = from_surgery(q, K)
            assert _per_fiber_C(X) == (flat_moduli.count_connections(q, K), c_correction(X)), \
                (q, K)


def _seeded_wide_cells(count, seed, max_a3=_kernels.MAX_MODULUS):
    """(q, K) with odd q <= 401, 0 < |K| <= 2000 and a3 = 2q|K| +- 1 <= max_a3,
    by default inside the integer tables (a3 < 2^20)."""
    rng = random.Random(seed)
    cells = []
    while len(cells) < count:
        q, K = rng.randrange(3, 402, 2), rng.choice((-1, 1)) * rng.randint(1, 2000)
        if 2 * q * abs(K) + 1 <= max_a3:
            cells.append((q, K))
    return cells


def _assert_per_fiber_c_is_the_closed_form(cells):
    try:
        for q, K in cells:
            assert _per_fiber_C(from_surgery(q, K))[1] == reference_C(q, K), (q, K)
    finally:
        _clear_integer_tables()  # each table of a3 ~ 2^20 holds 8 MB


def test_per_fiber_c_is_the_closed_form_far_past_the_budget():
    # (401, +-300) has 12.06 M connections and (101, +-150) 382 500
    _assert_per_fiber_c_is_the_closed_form(
        [(401, 300), (401, -300), (101, 150), (101, -150), *_seeded_wide_cells(12, 32)])


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 200).map(lambda m: 2 * m + 1),
       st.integers(-2000, 2000).filter(lambda K: K != 0))
def test_per_fiber_c_is_the_closed_form_property(q, K):
    # c_correction's own property (test_assembly.py) stops at q = 25; per
    # fiber, C reaches the edge of the integer tables
    assume(2 * q * abs(K) + 1 <= _kernels.MAX_MODULUS)
    _assert_per_fiber_c_is_the_closed_form([(q, K)])


@pytest.mark.slow
def test_per_fiber_c_is_the_closed_form_on_wide_cells():
    _assert_per_fiber_c_is_the_closed_form(_seeded_wide_cells(60, 320))


def _assert_float_fibers_bound_the_integer_sums_on(cells):
    try:
        for q, K in cells:
            _assert_float_fibers_bound_the_integer_sums(from_surgery(q, K))
    finally:
        _clear_integer_tables()
        _kernels._fiber.cache_clear()


def test_float_fibers_bound_the_integer_sums():
    # each FFT table's one bound, summed over the connections' residues, holds
    # at (401, +-300) (12.06 M connections) and on seeded cells with a3 < 2^18
    _assert_float_fibers_bound_the_integer_sums_on(
        [(401, 300), (401, -300), *_seeded_wide_cells(4, 33, 2 ** 18)])


@pytest.mark.slow
def test_float_fibers_bound_the_integer_sums_on_wide_cells():
    _assert_float_fibers_bound_the_integer_sums_on(_seeded_wide_cells(30, 330))


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
