import math

import pytest

from casson3 import flat_moduli
from casson3.errors import InvalidSurgery, TooManyConnections
from casson3.flat_moduli import (
    check_connection_budget,
    count_connections,
    enumerate_connections,
    is_admissible,
)
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
    monkeypatch.setattr(flat_moduli, "MAX_CONNECTIONS", 10)
    check_connection_budget([(3, 1), (3, -2), (3, 2)])  # 2 + 4 + 4 connections
    with pytest.raises(TooManyConnections) as exc:
        check_connection_budget([(3, 1), (3, -2), (3, 2), (3, -1)])
    assert "12 flat connections" in str(exc.value)


def test_counts_formula():
    assert count_connections(3, 1) == 2
    assert count_connections(9, 1) == 20
    assert count_connections(5, 3) == 18
    for q in (3, 5, 7, 9):
        for k in range(1, 11):
            for K in (k, -k):
                n = len(enumerate_connections(from_surgery(q, K)))
                assert n == count_connections(q, k), (q, K, n)


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
