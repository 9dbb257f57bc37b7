"""The per-fiber kernel seam: both cotangent-sum tables, the sphere plan and N.

A connection with invariant e on Sigma(a1, a2, a3), a = a1*a2*a3, reads the
cotangent sum S(A, e, n) of `dedekind` on its three fibers (a/a_i mod a_i,
a_i).  Each fiber (A, n) has two tables of all n residues, both built once:

* float   - with w_m = cot(pi*A*m/n) * cot(pi*m/n) for 0 < m < n and
            w_0 = 0, only the sine factor of S depends on e, and sin^2 x =
            (1 - cos 2x)/2 turns the sum into one discrete Fourier transform,
            S(A, e, n) = (F[0] - Re F[e]) / 2, F = fft(w).  `_fiber` fills
            every residue from one FFT, with one error bound for them all,
            and `cot_sum` is a lookup in it.
* integer - S(A, e, n) = -M / (4n) with the integer M of `dedekind`.  Every
            residue draws on one G(t) = sum_r p_r p_{(t - A r) mod n}, since
            N(s) = G(-e s), so `_numerator_table` fills M for all n residues
            in O(n) from the exact differences of G.

`fiber_plan(a)` holds, once per multiplicity triple, what every connection of
the sphere shares: per fiber (a/a_i mod a_i, a_i, (a/a_i)^2, 2.0/a_i, the
integer table M_i), then a and a^2.  Its tables come from `fiber_tables`,
so fibers of modulus 2 and q share one across spheres.
`cotangent_numerator(plan, e)` reads N = sum_i M_i (a/a_i)^2, so the
cotangent total sum_i (2/a_i) S(a/a_i, e, a_i) is -N / (2 a^2).  The same N
gives the exact rho of `dedekind`, rho_nat(e) = (N - 3 a^2) / a^2, and the
grading of `floer`, 2 a^2 mu_nat(e) = 4 a e^2 - N.  `dedekind` reads the plan
once per connection and `floer` once per sphere; neither builds a table.

`fiber_tables` refuses a modulus over MAX_MODULUS = 2^20 - 1
(TooManyConnections) before anything is built.  The integer table steps in
int64 through D(t) = G(t) - G(0) and M, and |D|, |M| <= 8n^3 < 2^63 for
n < 2^20, so every step is exact.  The connection budget keeps every sphere's
a3 = 2q|K| +- 1 <= 600 001, so only a hand-built connection can reach it.

Cache policy: `fiber_tables` builds both tables of a fiber on a miss into one
dict of (M, S, bound), which `cot_sum` and `fiber_plan` read.  Before a build
it drops the oldest entries (insertion order) while the held moduli, n + 32
per entry, would pass TABLE_BUDGET = 8 * MAX_MODULUS.  An entry takes 17n
bytes for its two arrays (8n each, over-allocated by 1/16) and about 480
more (< 17 * 32), so the cache holds under 17 * TABLE_BUDGET bytes, 136 MiB,
what 8 tables of each kind at MAX_MODULUS take, or any number of small ones
(the 96 cells q <= 9, |K| <= 12 build each of their 105 fibers once, in any
order).  A hit is one bare `dict.get`, as `cot_sum` runs 3 times per
connection: LRU reordering would cost more than the rare rebuild.
`fiber_plan` keeps only the last sphere's plan (every caller reads one sphere
at a time), whose three M tables add at most 26 MiB past eviction.
"""
from __future__ import annotations

import math
from array import array
from functools import lru_cache

import numpy as np

from .errors import TooManyConnections

EPS = float(np.finfo(np.float64).eps)
MAX_MODULUS = 2 ** 20 - 1  # largest modulus of either table (module docstring)
TABLE_BUDGET = 8 * MAX_MODULUS  # held moduli of the table cache (module docstring)

_tables: dict[tuple[int, int], tuple[array | None, array, float]] = {}  # (A, n) -> (M, S, bound)


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
    x = np.pi * np.arange(1, n // 2 + 1) / n
    half = np.cos(x) / np.sin(x)
    cot = np.concatenate(([np.nan], half, -half[:(n - 1) // 2][::-1]))
    w = cot[np.arange(n) * A % n] * cot
    w[0] = 0.0
    F = np.fft.fft(w).real
    bound = 8 * EPS * (math.log2(n) * math.sqrt(n) * float(np.linalg.norm(w)) + n)
    return array("d", ((F[0] - F) / 2).tobytes()), bound


def _numerator_table(A: int, n: int) -> array:
    """M(e) = -4n * S(A, e, n) for every residue 0 <= e < n, in O(n).

    M(e) = 2 G(0) - G(e) - G(-e) needs only D(t) = G(t) - G(0), and since
    p_{k+1} - p_k = 2 except at k = 0 and k = n - 1, G(t+1) - G(t) =
    2n(n-1) - n (p_{t/A} + p_{(t+1)/A}), indices mod n.  The int64 steps are
    exact up to MAX_MODULUS (module docstring); a larger n is refused first.
    """
    p = np.arange(-1, 2 * n - 2, 2, dtype=np.int64)
    p[0] = n - 1
    r = np.arange(n, dtype=np.int64)
    hit = p[r * pow(A, -1, n) % n]  # p_{t/A} for t = 0..n-1
    D = np.cumsum(np.r_[0, 2 * n * (n - 1) - n * (hit[:-1] + hit[1:])])
    return array("q", (-D - D[-r % n]).tobytes())


def fiber_tables(A: int, n: int) -> tuple[array | None, array, float]:
    """(M, S, bound) of the fiber (A, n), 0 <= A < n, built on a miss after
    the oldest entries the budget needs are dropped (module docstring)."""
    if (A, n) not in _tables:
        if n > MAX_MODULUS:
            raise TooManyConnections(f"modulus {n} is past the int64 range of the per-fiber "
                                     f"tables, whose largest modulus is {MAX_MODULUS}")
        while sum(m + 32 for _, m in _tables) + n + 32 > TABLE_BUDGET:
            del _tables[next(iter(_tables))]
        _tables[A, n] = (_numerator_table(A, n) if math.gcd(A, n) == 1 else None,
                         *_fiber(A, n))  # a non-unit A has a pole: no M, and S is nan
    return _tables[A, n]


def cot_sum(A: int, e: int, n: int) -> tuple[float, float]:
    """(value, conservative error bound) of the cotangent sum, read off the
    table of the fiber (A mod n, n).  Needs gcd(A, n) = 1 for a finite value."""
    _, values, bound = _tables.get((A % n, n)) or fiber_tables(A % n, n)
    return values[e % n], bound


cot_sum_numpy = cot_sum


@lru_cache(maxsize=1)
def fiber_plan(a: tuple[int, int, int]) -> tuple[tuple, int, int]:
    """The sphere's plan: per fiber (a/a_i mod a_i, a_i, (a/a_i)^2, 2.0/a_i,
    its table M from `fiber_tables`), then a = a1*a2*a3 and a^2."""
    prod = a[0] * a[1] * a[2]
    fibers = tuple(((prod // n) % n, n, (prod // n) ** 2, 2.0 / n) for n in a)
    return tuple((*f, fiber_tables(f[0], f[1])[0]) for f in fibers), prod, prod * prod


def cotangent_numerator(plan: tuple, e: int) -> int:
    """N = sum_i M_i * (a/a_i)^2 at e on the sphere of `plan` (module docstring),
    each M_i read off its fiber's table as a Python int: no product overflows."""
    (_, n1, c1, _, M1), (_, n2, c2, _, M2), (_, n3, c3, _, M3) = plan[0]
    return M1[e % n1] * c1 + M2[e % n2] * c2 + M3[e % n3] * c3
