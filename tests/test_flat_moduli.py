import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casson3 import flat_moduli
from casson3.assembly import reference_A
from casson3.dedekind import c_correction
from casson3.errors import ConventionMismatch, InvalidSurgery, TooManyConnections
from casson3.flat_moduli import (
    check_connection_budget,
    count_connections,
    enumerate_connections,
    is_admissible,
    l3_intervals,
)
from casson3.floer import build_floer_complex
from casson3.seifert import from_surgery, reverse_orientation

from tabledata import expected_rows


def test_enumeration_q3():
    triples = [c.L for c in enumerate_connections(from_surgery(3, 1))]
    assert triples == [(1, 1, 1), (1, 1, 3)]
    triples = [c.L for c in enumerate_connections(from_surgery(3, -1))]
    assert triples == [(1, 1, 3), (1, 1, 5)]


def test_enumeration_q5():
    by_branch = {}
    for c in enumerate_connections(from_surgery(5, 1)):
        by_branch.setdefault(c.L[1], []).append(c.L[2])
    assert by_branch == {2: [1, 3, 5, 7], 4: [3, 5]}


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr(flat_moduli, "MAX_CONNECTIONS", 10)
    for K in (5, -5):
        assert len(enumerate_connections(from_surgery(3, K))) == 10
    for K in (6, -6):
        with pytest.raises(TooManyConnections) as exc:
            enumerate_connections(from_surgery(3, K))
        assert "12 flat connections" in str(exc.value)


def test_request_budget_sums_the_cells(monkeypatch):
    cells = [(3, 1), (3, -2), (3, 2)]
    # 2 + 4 + 4 connections, (3, -1) has 2 more
    monkeypatch.setattr(flat_moduli, "MAX_CONNECTIONS", 10)
    check_connection_budget(cells)
    check_connection_budget([])
    with pytest.raises(TooManyConnections) as exc:
        check_connection_budget(cells + [(3, -1)])
    assert "the 4 requested spheres have 12 flat connections" in str(exc.value)


def test_counts_formula():
    assert count_connections(3, 1) == 2
    assert count_connections(9, 1) == 20
    assert count_connections(5, 3) == 18
    for q in (3, 5, 7, 9):
        for k in range(1, 11):
            for K in (k, -k):
                n = len(enumerate_connections(from_surgery(q, K)))
                assert n == count_connections(q, K), (q, K, n)


def test_rows_and_e_values():
    # includes the corrected -53 constant on the (q=9, L2=4, K>0) row; the
    # circulated -49 there duplicates the L2=2 row and fails e = sum L_i a/a_i
    for q in (3, 5, 7, 9):
        for k in range(1, 6):
            for positive in (True, False):
                X = from_surgery(q, k if positive else -k)
                got = [(c.L[1], c.L[2], c.t_index, c.e)
                       for c in enumerate_connections(X)]
                assert got == expected_rows(q, k, positive), (q, k, positive)


def test_q9_row_discrepancy_is_real():
    # variant constant -49 on the L2=4 branch does not describe the raw sums
    X = from_surgery(9, 1)
    branch = [c for c in enumerate_connections(X) if c.L[1] == 4]
    for c in branch:
        assert c.e == 324 * 1 + 36 * c.t_index - 53
        assert c.e != 324 * 1 + 36 * c.t_index - 49


def test_e_definition():
    # e = sum_i L_i * (a / a_i), unreduced (the tables' normalization)
    for K in (1, -2, 3):
        X = from_surgery(7, K)
        a = X.fiber_product
        for c in enumerate_connections(X):
            assert c.e == sum(L * (a // ai) for L, ai in zip(c.L, X.a))


def test_exhaustive_complement_small_spheres():
    # every in-range pair is enumerated iff admissible; admissibility agrees
    # with the transcendental inequality |cos(pi L3/a3)| < sin(pi L2/a2)
    for q in (3, 5, 7, 9):
        for K in (1, -1, 2, -2, 5, -5):
            X = from_surgery(q, K)
            _, a2, a3 = X.a
            if a3 > 200:
                continue
            enumerated = {(c.L[1], c.L[2]) for c in enumerate_connections(X)}
            k, m = abs(K), (q - 1) // 2
            for L2 in range(1, a2):
                for L3 in range(1, a3):
                    admissible = is_admissible(X, L2, L3)
                    assert admissible == ((L2, L3) in enumerated)
                    parity_ok = (L2 - m) % 2 == 0 and (L3 - k) % 2 == 0
                    trans = abs(math.cos(math.pi * L3 / a3)) < math.sin(math.pi * L2 / a2)
                    assert admissible == (parity_ok and trans), (q, K, L2, L3)
            # a pair outside 0 < L2 < a2, 0 < L3 < a3 is never admissible
            for L2, L3 in ((0, k), (a2, k), (-a2 + m, k), (m, 0), (m, a3), (m, a3 + 2), (m, -k)):
                assert not is_admissible(X, L2, L3), (q, K, L2, L3)


def test_orientation_independence():
    for q, K in [(3, 1), (5, -2), (9, 3)]:
        X = from_surgery(q, K)
        mirror = reverse_orientation(X)
        assert [c.L for c in enumerate_connections(X)] == \
               [c.L for c in enumerate_connections(mirror)]


def test_t_index_is_rank_within_branch():
    X = from_surgery(9, 2)
    seen = {}
    for c in enumerate_connections(X):
        seen.setdefault(c.L[1], []).append((c.t_index, c.L[2]))
    for branch in seen.values():
        ts = [t for t, _ in branch]
        l3s = [l3 for _, l3 in branch]
        assert ts == list(range(1, len(branch) + 1))
        assert l3s == sorted(l3s)


def test_count_connections_validation():
    with pytest.raises(InvalidSurgery):
        count_connections(4, 1)
    with pytest.raises(InvalidSurgery):
        count_connections(3, 0)


def test_enumeration_memo_serves_the_last_sphere(monkeypatch):
    for X in (from_surgery(7, 3), reverse_orientation(from_surgery(7, 3))):
        fresh = flat_moduli._enumerate.__wrapped__(X, is_admissible)
        memo = enumerate_connections(X)
        assert type(memo) is tuple and type(fresh) is tuple
        assert memo == fresh and all(c.host == X for c in memo)
        assert enumerate_connections(X) is memo
    # the budget is checked before the memo is read
    monkeypatch.setattr(flat_moduli, "MAX_CONNECTIONS", len(memo) - 1)
    with pytest.raises(TooManyConnections):
        enumerate_connections(X)
    monkeypatch.undo()
    # a rebound admissibility test is never answered from the memo
    monkeypatch.setattr(flat_moduli, "is_admissible", lambda X, L2, L3: False)
    with pytest.raises(ConventionMismatch):
        enumerate_connections(X)
    monkeypatch.undo()
    assert enumerate_connections(X) == memo


def test_one_enumeration_serves_c_and_the_gradings():
    X = from_surgery(9, -5)
    flat_moduli._enumerate.cache_clear()
    c_correction(X)
    build_floer_complex(X)
    info = flat_moduli._enumerate.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_the_walk_asks_at_most_4_points_a_branch_16_at_9_70():
    # a scan of every right-parity (L2, L3) pair asks 2 516 times at (9, 70); the
    # walk asks each branch's two ends and the in-range L3 just past each, none twice
    X = from_surgery(9, 70)
    calls = []

    def counted(X, L2, L3):
        calls.append((L2, L3))
        return is_admissible(X, L2, L3)

    n = len(flat_moduli._enumerate.__wrapped__(X, counted))
    branches = list(l3_intervals(X))
    assert n == count_connections(9, 70) == 1400 and len(branches) == 4
    assert len(calls) == len(set(calls)) == 16
    for L2, lo, hi in branches:
        assert {L3 for b, L3 in calls if b == L2} == {lo - 2, lo, hi, hi + 2}
    # (3, 2) has one branch, 2..8 of 0 < L3 < 11: both ends admitted, 10 refused
    calls.clear()
    assert len(flat_moduli._enumerate.__wrapped__(from_surgery(3, 2), counted)) == 4
    assert sorted(calls) == [(1, 2), (1, 8), (1, 10)]


def _scanned(X):
    """{(L2, L3): admissible} over every pair 0 < L2 < a2, 0 < L3 < a3."""
    _, a2, a3 = X.a
    return {(L2, L3) for L2 in range(1, a2) for L3 in range(1, a3) if is_admissible(X, L2, L3)}


def test_the_walk_is_the_brute_force_scan():
    for q in range(3, 26, 2):
        for K in (*range(-8, 0), *range(1, 9)):
            X = from_surgery(q, K)
            scanned = _scanned(X)
            walked = [(L2, L3) for L2, lo, hi in l3_intervals(X) for L3 in range(lo, hi + 1, 2)]
            assert walked == sorted(scanned), (q, K)
            for Y in (X, reverse_orientation(X)):
                assert [(c.L[1], c.L[2]) for c in enumerate_connections(Y)] == walked, Y


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 200).map(lambda i: 2 * i + 1), st.integers(1, 2000),
       st.sampled_from((1, -1)))
def test_interval_sizes_sum_to_the_count(q, k, sign):
    # the count cross-check in O(q) per sphere, with no enumeration.  No branch is
    # empty, which `_enumerate`'s end check needs: L2's open interval has length
    # a3 (1 - |q - 2 L2|/q) >= 2 a3/q >= 4 - 2/q > 3, so it holds an L3 of each parity
    X = from_surgery(q, sign * k)
    total = 0
    for L2, lo, hi in l3_intervals(X):
        assert 0 < lo <= hi < X.a[2] and (lo - k) % 2 == (hi - k) % 2 == 0, (L2, lo, hi)
        total += (hi - lo) // 2 + 1
    assert total == count_connections(q, sign * k)


def test_a_test_that_admits_outside_the_interval_is_refused(monkeypatch):
    X = from_surgery(3, 2)  # L2 = 1 walks L3 = 2..8 of 0 < L3 < 11
    assert list(l3_intervals(X)) == [(1, 2, 8)]
    monkeypatch.setattr(flat_moduli, "is_admissible", lambda X, L2, L3: True)
    with pytest.raises(ConventionMismatch, match=r"q=3, K=2.*L2=1 admits an L3 outside 2\.\.8"):
        enumerate_connections(X)


@pytest.mark.parametrize("refused", [(2, 1), (2, 7), (4, 3), (4, 5)])
def test_a_test_that_refuses_an_end_is_refused(monkeypatch, refused):
    # (5, 1) walks L3 = 1..7 on L2 = 2 and 3..5 on L2 = 4; a test that refuses an
    # end disagrees with the walk, and the error names the sphere and the branch
    X = from_surgery(5, 1)
    monkeypatch.setattr(flat_moduli, "is_admissible",
                        lambda X, L2, L3: (L2, L3) != refused and is_admissible(X, L2, L3))
    ends = {2: r"1\.\.7", 4: r"3\.\.5"}[refused[0]]
    with pytest.raises(ConventionMismatch,
                       match=rf"q=5, K=1.*L2={refused[0]} refuses an end of {ends}"):
        enumerate_connections(X)


def _interlacing_pairs(q, K):
    """Counter of (L2, L3) over the rank-2 solutions of the fiber relations, by brute force.

    With r = a3 = 2q|K| - sign K, alpha = {0, a/q} and gamma = {0, g/r} for 0 < a < q and
    0 < g < r, and each of the two sigma with 2 sigma = a/q + g/r + 1/2 (mod 1), a triple
    counts when the angles of sigma - gamma lie one in each open arc (0, a/q), (a/q, 1).
    It maps to L2 = a or q - a, whichever is (q - 1)/2 (mod 2), and to L3 = g or r - g,
    whichever is |K| (mod 2).  Angles are integers in units of 1/(4qr); nothing here is
    read from the walk or the admissibility test."""
    r = 2 * q * abs(K) - (1 if K > 0 else -1)
    unit, m, k = 4 * q * r, (q - 1) // 2, abs(K)
    pairs = Counter()
    for a in range(1, q):
        cut = 4 * r * a
        L2 = a if (a - m) % 2 == 0 else q - a
        for g in range(1, r):
            shift = 4 * q * g
            L3 = g if (g - k) % 2 == 0 else r - g
            sigma = (cut + shift + 2 * q * r) % unit // 2
            for x in (sigma, sigma + unit // 2):
                y = (x - shift) % unit
                if 0 not in (x, y) and cut not in (x, y) and (x < cut) != (y < cut):
                    pairs[L2, L3] += 1
    return pairs


def _check_interlacing(q, K):
    pairs = _interlacing_pairs(q, K)
    assert sum(pairs.values()) == 8 * count_connections(q, K), (q, K)
    walked = [(c.L[1], c.L[2]) for c in enumerate_connections(from_surgery(q, K))]
    assert pairs == Counter({pair: 8 for pair in walked}), (q, K)


def test_the_interlacing_count_is_the_enumeration():
    # each flat SU(2) connection is 8 solutions of the rank-2 relations
    for q in range(3, 16, 2):
        for K in (-3, -2, -1, 1, 2, 3):
            _check_interlacing(q, K)


@pytest.mark.slow
def test_the_interlacing_count_is_the_enumeration_to_q_39():
    # deselected by default; run with `python -m pytest -m slow`
    for q in range(3, 40, 2):
        for K in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5):
            _check_interlacing(q, K)


def _interlacing_triples(q, K):
    """Number of rank-3 solutions of the fiber relations, by brute force: 9 A.

    With r = a3 = 2q|K| - sign K, alpha = {0, a1/q, a2/q} for 0 < a1 < a2 < q,
    gamma = {0, g1/r, g2/r} for 0 < g1 < g2 < r, and each of the three sigma with
    3 sigma = sum alpha + sum gamma + 1/2 (mod 1), a triple counts when the angles of
    sigma - gamma lie one in each of the three open arcs of alpha (the
    interlacing criterion of Agnihotri and Woodward, 1998, cited from memory).
    Angles are integers in units of 1/(18qr); nothing here is read from the walk,
    the admissibility test or the kernel seam.  No angle of sigma - gamma meets
    alpha: that would make 3 sigma = T (mod 18qr) equal 3 (alpha_j + gamma_i), which
    is 0 (mod 18), while T is 9 (mod 18) since q and r are odd."""
    r = 2 * q * abs(K) - (1 if K > 0 else -1)
    unit = 18 * q * r
    count = 0
    for a1 in range(1, q):
        x1 = 18 * r * a1
        for a2 in range(a1 + 1, q):
            x2 = 18 * r * a2
            for g1 in range(1, r):
                y1 = 18 * q * g1
                for g2 in range(g1 + 1, r):
                    y2 = 18 * q * g2
                    T = (x1 + x2 + y1 + y2 + unit // 2) % unit  # 9 (mod 18)
                    for sigma in (T // 3, (T + unit) // 3, (T + 2 * unit) // 3):
                        arcs = 0  # bit i: an angle lies in the i-th arc of alpha
                        for x in (sigma, (sigma - y1) % unit, (sigma - y2) % unit):
                            arcs |= 1 << ((x > x1) + (x > x2))
                        count += arcs == 7
    return count


def _fitted_A(q, K):
    """A = alpha K^2 - beta K with alpha = (q^2 - 1)(q^2 - 3)/16 and beta =
    (q - 1)(q^2 + q - 3)/12 for q = 1 (mod 4), (q + 1)(q^2 - q - 3)/12 for q = 3
    (mod 4): fitted on the stored rows of q in {3, 5, 7, 9}, not derived."""
    alpha = (q * q - 1) * (q * q - 3) // 16
    beta = ((q - 1) * (q * q + q - 3) if q % 4 == 1 else (q + 1) * (q * q - q - 3)) // 12
    return alpha * K * K - beta * K


def test_the_rank_3_interlacing_count_is_9_A():
    # Sigma(2,3,5), the sphere at (3, 1), has the binary icosahedral group as its
    # fundamental group, with two irreducible SU(2) and two irreducible SU(3)
    # representations: an anchor that no counter shares
    assert _interlacing_triples(3, 1) == 9 * 2
    assert count_connections(3, 1) == 2
    for q in (3, 5, 7):
        for K in (-3, -2, -1, 1, 2, 3):
            assert _interlacing_triples(q, K) == 9 * reference_A(q, K), (q, K)


@pytest.mark.slow
def test_the_rank_3_interlacing_count_is_9_A_to_q_13():
    # deselected by default; run with `python -m pytest -m slow`
    for q in (3, 5, 7, 9):
        for K in (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6):
            assert _interlacing_triples(q, K) == 9 * reference_A(q, K) == 9 * _fitted_A(q, K), \
                (q, K)
    for q in (11, 13):
        for K in (-2, -1, 1, 2):
            assert _interlacing_triples(q, K) == 9 * _fitted_A(q, K), (q, K)
