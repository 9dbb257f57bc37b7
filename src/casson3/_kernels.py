"""Float kernel for the cotangent sums.

The hot loop is sum_{m=1}^{n-1} cot(pi*A*m/n) * cot(pi*m/n) * sin^2(pi*e*m/n).
Every trig value it needs is an entry of one of two per-modulus tables,
cot(pi*k/n) and sin(pi*k/n) for k < n, built once per n by `_tables`.  A call
reduces A*m and e*m modulo n in integers, so no trig argument ever exceeds pi
and the per-term rounding stays at machine epsilon, and then gathers its
factors from the tables: two integer gathers and three products, no trig
function.  Each table entry is computed as np.pi * k / n followed by
np.cos / np.sin, the expression a direct evaluation would use, so the tables
change no bit of the result.  Callers pass the residues (A mod n, e mod n, n),
so `cot_sum` memoises on them.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# maxsize of every cotangent-sum cache; one pass of the 96-cell q <= 9,
# |K| <= 12 table fills 3141 entries of the integer and of the float kernel's
# cache, the four table-deep cells about 2000, and the |K| <= 40 table needs
# about 32 800 distinct residues, so it evicts (each is still computed once).
# Each entry is a few small ints or floats; the per-modulus trig tables sit in
# their own, much smaller cache.
CACHE_SIZE = 2 ** 14

# maxsize of the per-modulus table cache.  A cell uses three moduli (2, q and
# a3) and 2 and q repeat across cells, so 8 keeps a sweep's tables warm.  An
# entry holds about 24*n bytes.  A sphere has (q^2 - 1)|K|/4 connections and
# a3 = 2q|K| +- 1, at most 3 per connection, so the connection budget bounds a
# request's sum of a3 to about 3 * MAX_CONNECTIONS and one entry to about
# 15 MB; the q <= 9, |K| <= 80 tables take under 40 KB each.
TABLE_CACHE_SIZE = 8


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, cot, sin) for the modulus n, all read-only: m = 1..n-1, cot[k] =
    cot(pi*k/n) for 1 <= k < n and sin[k] = sin(pi*k/n) for 0 <= k < n.

    cot[0] is inf, the value cos(0)/sin(0) a direct evaluation gives, so a
    residue A*m = 0 mod n (gcd(A, n) > 1) still makes the sum non-finite; it is
    stored, not computed, so the build never divides by zero.
    """
    k = np.arange(n, dtype=np.int64)
    x = np.pi * k / n
    cot = np.empty(n)
    cot[:1] = np.inf
    cot[1:] = np.cos(x[1:]) / np.sin(x[1:])
    sin = np.sin(x)
    m = k[1:]
    for table in (m, cot, sin):
        table.flags.writeable = False
    return m, cot, sin


def cot_sum_numpy(A: int, e: int, n: int) -> tuple[float, float]:
    """(value, conservative error bound) of the cotangent sum, uncached.
    Needs gcd(A, n) = 1 for a finite value."""
    A %= n
    e %= n
    m, cot, sin = _tables(n)
    s = sin[(e * m) % n]
    terms = cot[(A * m) % n] * cot[1:] * s * s
    total = float(np.sum(terms))
    largest = max(float(np.max(np.abs(terms))), abs(total)) if n > 1 else 0.0
    # the + n covers argument rounding through the near-pole cotangents
    return total, (n - 1) * EPS * (largest + n)


cot_sum = lru_cache(maxsize=CACHE_SIZE)(cot_sum_numpy)
