"""Float kernel for the cotangent sums.

The hot loop is sum_{m=1}^{n-1} cot(pi*A*m/n) * cot(pi*m/n) * sin^2(pi*e*m/n).
Only the sine factor depends on e, so everything else is built once per
fiber (A, n) by `_fiber`: the sine table sin(pi*k/n) for k < n and the
weights w_m = cot(pi*((A*m) mod n)/n) * cot(pi*m/n).  A call reduces e*m
modulo n in integers, so no trig argument ever exceeds pi and the per-term
rounding stays at machine epsilon, gathers the sines and forms w * s * s: one
integer gather and two products, no trig function.  Each trig value is
computed as np.pi * k / n followed by np.cos / np.sin, the expression a direct
evaluation would use, and w * s * s is the direct product's left-to-right
order, so the tables change no bit of the result.  Callers pass the residues
(A mod n, e mod n, n), so `cot_sum` memoises on them.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# maxsize of every per-residue cotangent-sum memo; one pass of the 96-cell
# q <= 9, |K| <= 12 table fills 3141 entries of the float kernel's memo, the
# four table-deep cells about 2000, and the |K| <= 40 table needs about 32 800
# distinct residues, so it evicts (each is still computed once).  Each entry
# is a few small ints or floats; the per-fiber tables sit in their own, much
# smaller caches.
CACHE_SIZE = 2 ** 14

# maxsize of each per-fiber table cache (this float one and the integer one
# of `dedekind`).  A cell uses three fibers, and the one of modulus 2 repeats
# across cells, so 8 keeps a sweep's tables warm.  A float entry holds about
# 24*n bytes and an integer one 8*n.  The connection budget bounds each
# sphere, so a3 = 2q|K| +- 1 <= 600 001 (q = 3) and one float entry is at
# most about 15 MB; the kernel-work bound of a CLI request gives a3 <= 54 769
# and about 1.3 MB.  The q <= 9, |K| <= 80 tables take under 40 KB each.
TABLE_CACHE_SIZE = 8


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _fiber(A: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, sin, w) for the fiber (A, n), all read-only: m = 1..n-1, sin[k] =
    sin(pi*k/n) for 0 <= k < n and w = cot[(A*m) mod n] * cot[m].

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
    w = cot[(A * m) % n] * cot[1:]
    for table in (m, sin, w):
        table.flags.writeable = False
    return m, sin, w


def cot_sum_numpy(A: int, e: int, n: int) -> tuple[float, float]:
    """(value, conservative error bound) of the cotangent sum, uncached.
    Needs gcd(A, n) = 1 for a finite value."""
    m, sin, w = _fiber(A % n, n)
    s = sin[(e % n * m) % n]
    terms = w * s * s
    total = float(np.sum(terms))
    largest = max(float(np.max(np.abs(terms))), abs(total)) if n > 1 else 0.0
    # the + n covers argument rounding through the near-pole cotangents
    return total, (n - 1) * EPS * (largest + n)


cot_sum = lru_cache(maxsize=CACHE_SIZE)(cot_sum_numpy)
