"""Float kernel for the cotangent sums.

With w_m = cot(pi*A*m/n) * cot(pi*m/n) for 0 < m < n and w_0 = 0, only the
sine factor of S(A, e, n) = sum_m w_m sin^2(pi*e*m/n) depends on e, and
sin^2 x = (1 - cos 2x)/2 turns the sum into one discrete Fourier transform:

    S(A, e, n) = (F[0] - Re F[e]) / 2,   F = fft(w).

So `_fiber` fills every residue of a fiber (A, n) from one FFT, the same
per-fiber table shape as `dedekind._numerator_table`, and `cot_sum` is a
lookup in it.
"""
from __future__ import annotations

import math
from array import array
from functools import lru_cache

import numpy as np

from .errors import TooManyConnections

EPS = float(np.finfo(np.float64).eps)

# maxsize of each per-fiber table cache (this float one and the integer one of
# `dedekind`) and of `dedekind.fiber_plan`, whose entry keeps up to 3 integer
# tables alive, its sphere's.  A cell's fibers have moduli 2 (shared by every
# cell), q (shared by the cells of one q and sign of K) and a3.  8 keeps the
# shared tables warm only in a sweep ordered by (q, K): the 105 fibers of the
# 96 cells q <= 9, |K| <= 12 missed 108 times in that order, and 162 times in
# the shuffled order of a table-grid pass (seed 5).  An entry holds 8*n bytes,
# float or integer.  The connection budget bounds the a3 = 2q|K| +- 1 summed
# over a request's spheres by about 600 001 (q = 3), so one table is at most
# about 4.8 MB; the q <= 9, |K| <= 80 tables take under 12 KB each.
TABLE_CACHE_SIZE = 8

# Largest modulus either per-fiber table is built for: the integer table's
# int64 steps are exact below 2^20.  The connection budget keeps every sphere's
# a3 = 2q|K| +- 1 <= 600 001, so only a hand-built connection can reach it.
MAX_MODULUS = 2 ** 20 - 1

# maxsize of the two reference memos of `dedekind` (`cot_sum_exact`,
# `cot_sum_lattice`), keyed on residues; no computation calls them.
CACHE_SIZE = 2 ** 14


def check_modulus(n: int) -> None:
    """Raise TooManyConnections for a fiber modulus over MAX_MODULUS."""
    if n > MAX_MODULUS:
        raise TooManyConnections(f"modulus {n} is past the int64 range of the per-fiber "
                                 f"tables, whose largest modulus is {MAX_MODULUS}")


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _fiber(A: int, n: int) -> tuple[array, float]:
    """(S(A, e, n) for every residue 0 <= e < n, one error bound for them all).

    Each cotangent is evaluated at pi*k/n <= pi/2 and mirrored, cot(pi - x) =
    -cot(x): an argument near pi would be off by a relative n*eps.  The pole
    cot(0) is stored as nan, which propagates without a floating-point
    exception, so gcd(A, n) > 1 gives nan at every residue and in the bound.

    The bound 8*eps*(log2(n)*sqrt(n)*|w|_2 + n) takes the FFT's 2-norm error, a
    few eps*log2(n)*|F|_2 with |F|_2 = sqrt(n)*|w|_2 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 24), as a bound on each component;
    the 8 covers pocketfft's Bluestein path and the weights' rounding, and + n
    is a floor for sums near zero (w is about 4e-33 at n = 2).  The realised
    error stayed under 0.06 of it on every unit A for n <= 400 and on sampled
    fibers up to n = 600 001.
    """
    check_modulus(n)
    x = np.pi * np.arange(1, n // 2 + 1) / n
    half = np.cos(x) / np.sin(x)
    cot = np.concatenate(([np.nan], half, -half[:(n - 1) // 2][::-1]))
    w = cot[np.arange(n) * A % n] * cot
    w[0] = 0.0
    F = np.fft.fft(w).real
    bound = 8 * EPS * (math.log2(n) * math.sqrt(n) * float(np.linalg.norm(w)) + n)
    return array("d", ((F[0] - F) / 2).tobytes()), bound


def cot_sum(A: int, e: int, n: int) -> tuple[float, float]:
    """(value, conservative error bound) of the cotangent sum, read off the
    table of the fiber (A mod n, n).  Needs gcd(A, n) = 1 for a finite value."""
    values, bound = _fiber(A % n, n)
    return values[e % n], bound


cot_sum_numpy = cot_sum
