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

A sphere has (q^2 - 1)|K|/4 of them, and one enumeration holds them all, so
`enumerate_connections` refuses a sphere with more than MAX_CONNECTIONS
before it starts.  A request that keeps the connections of several spheres
checks their total against the same budget with `check_connection_budget`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidSurgery, TooManyConnections
from .seifert import BrieskornSphere

# About 54 MB of connections at some 270 bytes each.
MAX_CONNECTIONS = 200_000


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


def enumerate_connections(X: BrieskornSphere) -> list[FlatConnection]:
    """All admissible triples, sorted by (L2, L3), with t ranking L3 within L2.

    Raises TooManyConnections when there would be more than MAX_CONNECTIONS.
    """
    k, m = abs(X.K), (X.q - 1) // 2
    check_connection_budget([(X.q, k)])
    a1, a2, a3 = X.a
    a = X.fiber_product
    out: list[FlatConnection] = []
    for L2 in range(1, a2):
        if (L2 - m) % 2 != 0:
            continue
        t = 0
        for L3 in range(2 - k % 2, a3, 2):  # L3 = k (mod 2)
            if not is_admissible(X, L2, L3):
                continue
            t += 1
            e = (a // a1) + L2 * (a // a2) + L3 * (a // a3)
            out.append(FlatConnection(L=(1, L2, L3), t_index=t, e=e, host=X))
    return out


def check_connection_budget(cells: Sequence[tuple[int, int]]) -> None:
    """Raise TooManyConnections if the spheres of the (q, K) cells together
    have more than MAX_CONNECTIONS flat connections."""
    count = sum(count_connections(q, abs(K)) for q, K in cells)
    if count > MAX_CONNECTIONS:
        if len(cells) == 1:
            what = f"q={cells[0][0]}, |K|={abs(cells[0][1])} has"
        else:
            what = f"the {len(cells)} requested spheres have"
        raise TooManyConnections(
            f"{what} {count} flat connections; the budget is {MAX_CONNECTIONS}")


def count_connections(q: int, k: int) -> int:
    """(q^2 - 1) k / 4; equals len(enumerate_connections) for both surgery signs."""
    if q < 3 or q % 2 == 0 or k < 1:
        raise InvalidSurgery(f"need odd q >= 3 and k >= 1, got q={q}, k={k}")
    return (q * q - 1) * k // 4
