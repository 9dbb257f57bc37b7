"""Irreducible flat SU(2) connections of the surgery spheres, enumerated as
rotation-number triples (L1, L2, L3).

The triple determines the conjugacy classes of the three exceptional-fiber
generators; admissibility is the exact integer form of the constraint that the
third generator's trace be reachable, namely

    |a3/2 - a3*L2/a2| < L3 < a3 - |a3/2 - a3*L2/a2|

together with the parity constraints L2 = m (mod 2), L3 = k (mod 2), where
m = (q-1)/2 and k = |K|.  The bound is the exact transcription of
|cos(pi*L3/a3)| < sin(pi*L2/a2), valid on both sides of a2/2.  Enumeration walks
each L2's closed-form L3 interval (`l3_intervals`), asking the test only at its ends
and just past them, O(q) tests, not O(q a3); it depends only on the multiplicities.

A request's one work budget lives here.  A sphere has (q^2 - 1)|K|/4
connections, which one enumeration holds, and every computation on it costs
O(connections + a3 log a3), since both kernels read rho's values off per-fiber
tables; `check_connection_budget` bounds the connections summed over a
request's (q, K) cells by MAX_CONNECTIONS.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import ConventionMismatch, TooManyConnections
from .seifert import BrieskornSphere, check_surgery

# The memo of `enumerate_connections` keeps one enumeration, some 230 bytes a
# connection (tracemalloc over the 84 000 of (41, 200)).  On a 2-core x86 VM
# `rho` (C alone) at (3, +-100 000) and at (893, 1) took about 2.7-3.4 s, and
# peaked at 188 and 73 MB RSS; at (3, +-100 000) the per-fiber tables of
# a3 = 600 001 add to the enumeration.
MAX_CONNECTIONS = 200_000


@dataclass(slots=True, unsafe_hash=True)
class FlatConnection:
    """Rotation numbers with the enumeration index t (rank of L3 within its L2
    branch, 1-based) and the integer e = sum_i L_i * (a / a_i).

    A slotted dataclass, equal and hash-equal on its four fields.  One is
    built per connection of every enumeration, so it is not frozen, which
    would assign each field through object.__setattr__; nothing assigns to it
    after construction."""

    L: tuple[int, int, int]
    t_index: int
    e: int
    host: BrieskornSphere


def is_admissible(X: BrieskornSphere, L2: int, L3: int) -> bool:
    """Parity and trace-reachability test for a candidate (1, L2, L3)."""
    _, a2, a3 = X.a
    if (L2 - (X.q - 1) // 2) % 2 != 0 or (L3 - abs(X.K)) % 2 != 0:
        return False
    # compare via integers: bound = |a3/2 - a3*L2/a2| = |a2*a3 - 2*a3*L2| / (2*a2)
    twice_bound_num = abs(a2 * a3 - 2 * a3 * L2)  # = 2*a2*bound
    return twice_bound_num < 2 * a2 * L3 < 2 * a2 * a3 - twice_bound_num


def enumerate_connections(X: BrieskornSphere) -> tuple[FlatConnection, ...]:
    """All admissible triples, sorted by (L2, L3), with t ranking L3 within L2.

    Raises TooManyConnections past MAX_CONNECTIONS, and ConventionMismatch if
    `is_admissible` disagrees at a branch's ends.  The last sphere's enumeration is
    memoised (C and the gradings share one); the budget is checked on every call.
    """
    check_connection_budget([(X.q, X.K)])
    return _enumerate(X, is_admissible)


def l3_intervals(X: BrieskornSphere) -> Iterator[tuple[int, int, int]]:
    """(L2, lo, hi) per L2 = m (mod 2), 0 < L2 < a2: its admissible L3 are the L3 = k
    (mod 2) in lo..hi.  The bound's ends are not integers (a3|a2 - 2L2| is odd)."""
    _, a2, a3 = X.a
    first = 2 - abs(X.K) % 2  # the least L3 = |K| (mod 2)
    for L2 in range(2 - (X.q - 1) // 2 % 2, a2, 2):
        cut = a3 * abs(a2 - 2 * L2) // (2 * a2)
        lo, hi = cut + 1, a3 - cut - 1
        yield L2, lo + (lo - first) % 2, hi - (hi - first) % 2


@lru_cache(maxsize=1)
def _enumerate(X: BrieskornSphere, admissible) -> tuple[FlatConnection, ...]:
    """The admissible L3 of one L2 and parity form an interval, so the walk equals the test
    once it admits lo and hi and refuses the in-range L3 just past each.  Keyed on the test
    too, so a rebound `is_admissible` is never answered from the memo of another."""
    c1, c2, c3 = (X.fiber_product // n for n in X.a)
    out: list[FlatConnection] = []
    for L2, lo, hi in l3_intervals(X):
        if not all(admissible(X, L2, L3) for L3 in {lo, hi}):
            raise ConventionMismatch(f"{X}: L2={L2} refuses an end of {lo}..{hi}")
        if any(0 < L3 < X.a[2] and admissible(X, L2, L3) for L3 in (lo - 2, hi + 2)):
            raise ConventionMismatch(f"{X}: L2={L2} admits an L3 outside {lo}..{hi}")
        out += [FlatConnection((1, L2, L3), t, c1 + L2 * c2 + L3 * c3, X)
                for t, L3 in enumerate(range(lo, hi + 1, 2), 1)]
    return tuple(out)


def check_connection_budget(cells: Sequence[tuple[int, int]]) -> None:
    """Raise TooManyConnections if the spheres of the (q, K) cells together
    have more than MAX_CONNECTIONS flat connections."""
    total = sum(count_connections(q, K) for q, K in cells)
    if total > MAX_CONNECTIONS:
        what = (f"q={cells[0][0]}, |K|={abs(cells[0][1])} has" if len(cells) == 1
                else f"the {len(cells)} requested spheres have")
        raise TooManyConnections(
            f"{what} {total} flat connections; the budget is {MAX_CONNECTIONS}")


def count_connections(q: int, K: int) -> int:
    """(q^2 - 1) |K| / 4; equals len(enumerate_connections) for both surgery signs."""
    check_surgery(q, K)
    return (q * q - 1) * abs(K) // 4
