import math

import pytest

from casson3 import flat_moduli
from casson3.dedekind import c_correction
from casson3.errors import InvalidSurgery, TooManyConnections
from casson3.flat_moduli import (
    check_connection_budget,
    check_kernel_work,
    count_connections,
    enumerate_connections,
    is_admissible,
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
    # 2 + 4 + 4 connections, (3, -1) has 2 more; in units of connections x a3,
    # 2*5 + 4*13 + 4*11 = 106 and 2*7 more
    for check, budget, bound, total in (
            (check_connection_budget, "MAX_CONNECTIONS", 10, "12 flat connections"),
            (check_kernel_work, "MAX_KERNEL_WORK", 106, "120 units of kernel work")):
        monkeypatch.setattr(flat_moduli, budget, bound)
        check(cells)
        with pytest.raises(TooManyConnections) as exc:
            check(cells + [(3, -1)])
        assert f"the 4 requested spheres have {total}" in str(exc.value)


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
    assert enumerate_connections(X) == ()
    monkeypatch.undo()
    assert enumerate_connections(X) == memo


def test_one_enumeration_serves_c_and_the_gradings():
    X = from_surgery(9, -5)
    flat_moduli._enumerate.cache_clear()
    c_correction(X)
    build_floer_complex(X)
    info = flat_moduli._enumerate.cache_info()
    assert (info.misses, info.hits) == (1, 2)
