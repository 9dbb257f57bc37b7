"""Float kernel for the cotangent sums.

The hot loop is sum_{m=1}^{n-1} cot(pi*A*m/n) * cot(pi*m/n) * sin^2(pi*e*m/n),
evaluated as one vectorized numpy expression.  A*m and e*m are reduced
modulo n in integers first, so no trig argument ever exceeds pi and the
per-term rounding stays at machine epsilon.  Callers pass the residues
(A mod n, e mod n, n), so `cot_sum` memoises on them.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# maxsize of every cotangent-sum cache; one pass of the 96-cell q <= 9,
# |K| <= 12 table fills 3141 entries of the integer and of the float kernel's
# cache, the four table-deep cells about 2000, and the |K| <= 40 table needs
# about 32 800 distinct residues, so it evicts (each is still computed once)
CACHE_SIZE = 2 ** 14


def cot_sum_numpy(A: int, e: int, n: int) -> tuple[float, float]:
    """(value, conservative error bound) of the cotangent sum, uncached."""
    A %= n
    e %= n
    m = np.arange(1, n, dtype=np.int64)
    x1 = np.pi * ((A * m) % n) / n
    x2 = np.pi * m / n
    s = np.sin(np.pi * ((e * m) % n) / n)
    terms = (np.cos(x1) / np.sin(x1)) * (np.cos(x2) / np.sin(x2)) * s * s
    total = float(np.sum(terms))
    largest = max(float(np.max(np.abs(terms))), abs(total)) if n > 1 else 0.0
    # the + n covers argument rounding through the near-pole cotangents
    return total, (n - 1) * EPS * (largest + n)


cot_sum = lru_cache(maxsize=CACHE_SIZE)(cot_sum_numpy)
