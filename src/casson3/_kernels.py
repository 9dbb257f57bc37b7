"""Float kernel for the cotangent sums.

The hot loop is sum_{m=1}^{n-1} cot(pi*A*m/n) * cot(pi*m/n) * sin^2(pi*e*m/n),
evaluated as one vectorized numpy expression.  A*m and e*m are reduced
modulo n in integers first, so no trig argument ever exceeds pi and the
per-term rounding stays at machine epsilon.
"""
from __future__ import annotations

import numpy as np

EPS = float(np.finfo(np.float64).eps)


def cot_sum(A: int, e: int, n: int) -> tuple[float, float]:
    """(value, conservative error bound) of the cotangent sum."""
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


# the name under which the kernel micro-benchmark sweeps this kernel
cot_sum_numpy = cot_sum
