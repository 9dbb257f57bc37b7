"""Irreducible flat SU(2) connections of the surgery spheres, enumerated as
rotation-number triples (L1, L2, L3).

The triple determines the conjugacy classes of the three exceptional-fiber
generators; admissibility is the exact integer form of the constraint that the
third generator's trace be reachable, namely

    |a3/2 - a3*L2/a2| < L3 < a3 - |a3/2 - a3*L2/a2|

together with the parity constraints L2 = m (mod 2), L3 = k (mod 2), where
m = (q-1)/2 and k = |K|.  The bound is the exact transcription of
|cos(pi*L3/a3)| < sin(pi*L2/a2), valid on both sides of a2/2.  Enumeration
depends only on the multiplicities, never on the orientation.

Both work budgets of a request live here.  A sphere has (q^2 - 1)|K|/4
connections, which one enumeration holds, and rho on all of them costs
connections x a3 units of kernel work; `check_connection_budget` and
`check_kernel_work` bound the sums over a request's (q, K) cells by
MAX_CONNECTIONS and MAX_KERNEL_WORK.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import TooManyConnections
from .seifert import BrieskornSphere, check_surgery, from_surgery

# About 54 MB of connections at some 270 bytes each; the memo of
# `enumerate_connections` keeps one such enumeration.
MAX_CONNECTIONS = 200_000

# Under a minute: a connection's float kernel sums a3 - 1 terms whose residues
# barely repeat, and on a 2-core x86 VM C took 9-10 ns a unit at (3, +-4000),
# 1.9e8 units, 18 ns at (3, 8000), and 41 s at (3, 9128), 1.0e9 units, where
# more than 2^14 residues make the float memo miss twice per connection.
MAX_KERNEL_WORK = 10 ** 9


@dataclass(frozen=True)
class FlatConnection:
    """Rotation numbers with the enumeration index t (rank of L3 within its L2
    branch, 1-based) and the integer e = sum_i L_i * (a / a_i)."""

    L: tuple[int, int, int]
    t_index: int
    e: int
    host: BrieskornSphere


def is_admissible(X: BrieskornSphere, L2: int, L3: int) -> bool:
    """Parity and trace-reachability test for a candidate (1, L2, L3)."""
    _, a2, a3 = X.a
    if not (0 < L2 < a2 and 0 < L3 < a3):
        return False
    if (L2 - (X.q - 1) // 2) % 2 != 0 or (L3 - abs(X.K)) % 2 != 0:
        return False
    # compare via integers: bound = |a3/2 - a3*L2/a2| = |a2*a3 - 2*a3*L2| / (2*a2)
    twice_bound_num = abs(a2 * a3 - 2 * a3 * L2)  # = 2*a2*bound
    return twice_bound_num < 2 * a2 * L3 < 2 * a2 * a3 - twice_bound_num


def enumerate_connections(X: BrieskornSphere) -> tuple[FlatConnection, ...]:
    """All admissible triples, sorted by (L2, L3), with t ranking L3 within L2.

    Raises TooManyConnections when there would be more than MAX_CONNECTIONS.
    The last sphere's enumeration is memoised, so the aggregates of C and the
    Floer gradings share one; the budget is checked on every call.
    """
    check_connection_budget([(X.q, X.K)])
    return _enumerate(X, is_admissible)


@lru_cache(maxsize=1)
def _enumerate(X: BrieskornSphere, admissible) -> tuple[FlatConnection, ...]:
    """Keyed on the admissibility test too, so a rebound `is_admissible` is
    never answered from the memo of another."""
    k, m = abs(X.K), (X.q - 1) // 2
    a1, a2, a3 = X.a
    a = X.fiber_product
    out: list[FlatConnection] = []
    for L2 in range(1, a2):
        if (L2 - m) % 2 != 0:
            continue
        t = 0
        for L3 in range(2 - k % 2, a3, 2):  # L3 = k (mod 2)
            if not admissible(X, L2, L3):
                continue
            t += 1
            e = (a // a1) + L2 * (a // a2) + L3 * (a // a3)
            out.append(FlatConnection(L=(1, L2, L3), t_index=t, e=e, host=X))
    return tuple(out)


def check_connection_budget(cells: Sequence[tuple[int, int]]) -> None:
    """Raise TooManyConnections if the spheres of the (q, K) cells together
    have more than MAX_CONNECTIONS flat connections."""
    _check_sum(cells, count_connections, "flat connections", MAX_CONNECTIONS)


def check_kernel_work(cells: Sequence[tuple[int, int]]) -> None:
    """Raise TooManyConnections if rho on every connection of the (q, K) cells
    takes more than MAX_KERNEL_WORK units of connections x a3."""
    _check_sum(cells, lambda q, K: count_connections(q, K) * from_surgery(q, K).a[2],
               "units of kernel work (connections x a3)", MAX_KERNEL_WORK)


def _check_sum(cells: Sequence[tuple[int, int]], size, unit: str, budget: int) -> None:
    total = sum(size(q, K) for q, K in cells)
    if total > budget:
        what = (f"q={cells[0][0]}, |K|={abs(cells[0][1])} has" if len(cells) == 1
                else f"the {len(cells)} requested spheres have")
        raise TooManyConnections(f"{what} {total} {unit}; the budget is {budget}")


def count_connections(q: int, K: int) -> int:
    """(q^2 - 1) |K| / 4; equals len(enumerate_connections) for both surgery signs."""
    check_surgery(q, K)
    return (q * q - 1) * abs(K) // 4
