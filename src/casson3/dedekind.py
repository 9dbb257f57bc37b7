"""Adjoint rho invariants of flat connections via Dedekind cotangent sums.

For the sphere Sigma(a1,a2,a3) with its natural orientation and a flat
connection with invariant e, the rho invariant of the adjoint coupling is

    rho_nat(e) = -2 * (3/2 + sum_{i=1..3} (2/a_i) * S(a/a_i, e, a_i)),

    S(A, e, n) = sum_{m=1}^{n-1} cot(pi*A*m/n) cot(pi*m/n) sin^2(pi*e*m/n).

The prefactor (2/a_i), the sine argument, and the single global sign were
calibrated once against the q = 3, K = +-1 aggregate anchors (17/12 and
-41/84) and are frozen here; every other (q, K) value is a prediction of this
formula.  A connection on an oriented sphere X has rho_X = orientation *
rho_nat, and the aggregate correction is

    C(X) = (-eps/8) * sum_j rho_X(A_j),   eps = orientation sign of X,

which is therefore orientation-invariant.

C has one evaluation contract: every rho is evaluated by two independent
kernels, and `c_correction` returns the snapped float aggregate only if it
equals the integer one (ConventionMismatch otherwise).

* snapped     - the numpy kernel's double sum, rounded onto the lattice
                (1/D)Z, D = 4*a1*a2*a3, which holds every rho.  The nearest
                point p/d (lowest terms) is taken only if it lies within the
                error bound err and 3*err*d*D < 1: any other rational with
                denominator <= D is then at least 1/(d*D) from p/d, so more
                than 2*err from the estimate.  Otherwise the value escalates
                to the integer kernel.
* integer     - closed form over the integers: writing cot(pi j/n) =
                (i/n)(x+1)U(x) at x = exp(2 pi i j/n) with U(x) = sum r x^r
                and expanding, S(A,e,n) = -M / (4n) with the integer
                M = 2 N(0) - N(1) - N(-1), where
                N(s) = sum_r p_r p_{(-A r - e s) mod n} and
                p = [n-1, 1, 3, ..., 2n-3].

The integer kernel never forms that convolution per residue.  Every residue
of a fiber (A, n) draws on one G(t) = sum_r p_r p_{(t - A r) mod n}, since
N(s) = G(-e s), so `_numerator_table` fills M for all n residues in O(n)
from the exact differences of G, and `cot_sum_numerator` is an O(1)
lookup.  ``cot_sum_exact`` (M as the rational S) and
``cot_sum_lattice`` are independent references for the tests; no
computation calls them.  Both expand the residue (-A r - e s) mod n through
a floor, which leaves a polynomial part in closed form, two boundary terms
and one weighted floor sum sum_r (2r-1) floor((-A r - e s)/n), i.e. a
weighted count of lattice points under a line.  ``cot_sum_exact`` evaluates
it in O(log n) with the Euclid-like recursion of `floor_sums`, the
reciprocity step behind Dedekind sums (Rademacher 1964; Knuth, TAOCP vol. 2,
3.3.3); ``cot_sum_lattice`` counts it term by term in O(n).

The exact arithmetic stays in integers until one Fraction per connection.
With a = a1*a2*a3 and M_i the numerator of fiber i,

    N = sum_i M_i (a/a_i)^2,   rho_nat(e) = (N - 3 a^2) / a^2,

and the same N gives the Floer grading (see `floer`).  The aggregate adds
the numerators of the rho values over L = 4 a^2, which every denominator
divides (snapped values lie on (1/4a)Z, exact ones on (1/a^2)Z), and builds
one Fraction per sphere.  The float cross-check compares exact and float in
integers from `float.as_integer_ratio`.

Each fiber's kernel call is made on the residues (a/a_i mod a_i, e mod a_i,
a_i).  The invariant e is unique per connection, but every residue of a
fiber draws on the same data, so both kernels build it once per fiber and
keep the last `_kernels.TABLE_CACHE_SIZE` fibers: the integer table of M,
and the float kernel's sines and cotangent weights.  A float value is also
memoised on its residues (`_kernels.CACHE_SIZE` entries).
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import ConventionMismatch, SnapFailure, TooManyConnections
from .flat_moduli import FlatConnection, check_kernel_work, enumerate_connections
from .seifert import BrieskornSphere, from_surgery

PATHS = ("float", "exact")

SNAP_DENOMINATOR_FACTOR = 4  # every rho lies on (1/D)Z, D = 4*a1*a2*a3
MAX_SNAP_ERROR = 1e-6  # snapping is refused above this accumulated error

# frozen calibration anchors: aggregate corrections for q = 3, K = +-1
_ANCHORS = ((3, 1, Fraction(17, 12)), (3, -1, Fraction(-41, 84)))


@dataclass(frozen=True)
class FloatEstimate:
    """A double plus a conservative bound on its accumulated summation error;
    ConventionMismatch unless both are finite and the bound is >= 0."""

    value: float
    error_bound: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and 0.0 <= self.error_bound < math.inf):
            raise ConventionMismatch(f"float estimate needs a finite value and a finite "
                                     f"bound >= 0, got {self.value!r} +- {self.error_bound!r}")


def floor_sums(a: int, b: int, c: int, n: int) -> tuple[int, int, int]:
    """(f, g, h) = sums over 0 <= i < n of F(i), i*F(i) and F(i)^2, where
    F(i) = floor((a*i + b)/c), for any integers a, b and c >= 1.

    Euclid-like: a and b are first reduced mod c, then the lattice points
    under the line are counted column-wise instead of row-wise, which swaps
    a and c; O(log c) levels of integer arithmetic.
    """
    if n <= 0:
        return 0, 0, 0
    qa, a = divmod(a, c)
    qb, b = divmod(b, c)
    s1 = n * (n - 1) // 2
    s2 = (n - 1) * n * (2 * n - 1) // 6
    m = (a * (n - 1) + b) // c
    if m == 0:
        f = g = h = 0
    else:
        # F(i) > j  <=>  i > t_j = floor((c*j + c - b - 1)/a), for 0 <= j < m
        tf, tg, th = floor_sums(c, c - b - 1, a, m)
        f = m * (n - 1) - tf
        g = (m * n * (n - 1) - th - tf) // 2
        h = m * m * (n - 1) - 2 * tg - tf
    return (f + qa * s1 + qb * n,
            g + qa * s2 + qb * s1,
            h + 2 * qa * g + 2 * qb * f + qa * qa * s2 + 2 * qa * qb * s1 + qb * qb * n)


def _weighted_floor_sum_euclid(a: int, b: int, n: int) -> int:
    """sum_{r<n} (2r - 1) floor((a*r + b)/n) in O(log n)."""
    f, g, _ = floor_sums(a, b, n, n)
    return 2 * g - f


def _weighted_floor_sum_loop(a: int, b: int, n: int) -> int:
    """sum_{r<n} (2r - 1) floor((a*r + b)/n), term by term."""
    return sum((2 * r - 1) * ((a * r + b) // n) for r in range(n))


def _cot_sum_numerator(A: int, e: int, n: int, weighted_floor_sum) -> int:
    """M = 2 N(0) - N(1) - N(-1), the integer with S(A, e, n) = -M / (4n), with
    N(s) written as a closed polynomial part, a weighted floor sum and two
    boundary terms.

    N(s) = sum_r p_r p_{sigma(r)}, sigma(r) = (-A r - e s) mod n and
    p_r = (2r - 1) + n*[r = 0].  Expanding sigma(r) = u - n*floor(u/n) with
    u = -A r - e s leaves sum_r (2r - 1)(2u - 1), a polynomial in n, A and
    e s, minus 2n times the weighted floor sum; the [r = 0] and
    [sigma(r) = 0] parts give the boundary terms.  Needs gcd(A, n) = 1.
    """
    A %= n
    e %= n
    inverse = pow(-A, -1, n)
    s1 = n * (n - 1) // 2
    s2 = (n - 1) * n * (2 * n - 1) // 6

    def N(s: int) -> int:
        b = -e * s
        sigma_at_0 = b % n
        r_hitting_0 = (inverse * e * s) % n
        polynomial = -4 * A * s2 + 2 * (2 * b - 1 + A) * s1 - n * (2 * b - 1)
        total = (polynomial - 2 * n * weighted_floor_sum(-A, b, n)
                 + n * (2 * sigma_at_0 - 1) + n * (2 * r_hitting_0 - 1))
        if sigma_at_0 == 0:
            total += n * n
        return total

    return 2 * N(0) - N(1) - N(-1)


@lru_cache(maxsize=_kernels.TABLE_CACHE_SIZE)
def _numerator_table(A: int, n: int) -> array:
    """M(e) = -4n * S(A, e, n) for every residue 0 <= e < n, in O(n).

    M(e) = 2 G(0) - G(e) - G(-e) needs only D(t) = G(t) - G(0), and since
    p_{k+1} - p_k = 2 except at k = 0 and k = n - 1, G(t+1) - G(t) =
    2n(n-1) - n (p_{t/A} + p_{(t+1)/A}), indices mod n.  |D|, |M| <= 8n^3 <
    2^63 for n < 2^20 (the connection budget allows a3 <= 600 001), so the
    int64 steps are exact; a larger n is refused.
    """
    if n >= 2 ** 20:
        raise TooManyConnections(f"modulus {n} is past the int64 range of the numerator table")
    p = np.arange(-1, 2 * n - 2, 2, dtype=np.int64)
    p[0] = n - 1
    r = np.arange(n, dtype=np.int64)
    hit = p[r * pow(A, -1, n) % n]  # p_{t/A} for t = 0..n-1
    D = np.cumsum(np.r_[0, 2 * n * (n - 1) - n * (hit[:-1] + hit[1:])])
    return array("q", (-D - D[-r % n]).tobytes())


def cot_sum_numerator(A: int, e: int, n: int) -> int:
    """The integer M = -4n * S(A, e, n), read off the table of the fiber
    (A mod n, n) as a Python int, so the caller's products never overflow.
    Requires gcd(A, n) = 1, which every caller meets because the
    multiplicities of a Brieskorn sphere are pairwise coprime."""
    return _numerator_table(A % n, n)[e % n]


@lru_cache(maxsize=_kernels.CACHE_SIZE)
def cot_sum_exact(A: int, e: int, n: int) -> Fraction:
    """S(A, e, n) = -M / (4n) as a rational, M from the floor-sum recursion: a
    reference for the tests and the kernel benchmark, which no computation
    calls.  It evaluates M afresh, so clearing its cache times the whole kernel."""
    return Fraction(-_cot_sum_numerator(A, e, n, _weighted_floor_sum_euclid), 4 * n)


@lru_cache(maxsize=_kernels.CACHE_SIZE)
def cot_sum_lattice(A: int, e: int, n: int) -> Fraction:
    """S(A, e, n) with the weighted floor sum counted term by term in O(n): a
    reference wrapper that checks the floor-sum recursion of `cot_sum_exact`,
    with which it shares every other step.  Requires gcd(A, n) = 1."""
    return Fraction(-_cot_sum_numerator(A, e, n, _weighted_floor_sum_loop), 4 * n)


def _fiber_arguments(a: tuple[int, int, int], e: int) -> list[tuple[int, int, int]]:
    """The kernel arguments (a/a_i mod a_i, e mod a_i, a_i) of each fiber."""
    prod = a[0] * a[1] * a[2]
    return [((prod // ai) % ai, e % ai, ai) for ai in a]


def cotangent_numerator(a: tuple[int, int, int], e: int) -> int:
    """N = sum_i M_i * (a/a_i)^2, so that the cotangent total
    sum_i (2/a_i) S(a/a_i, e, a_i) is -N / (2 a^2), a = a1*a2*a3."""
    prod = a[0] * a[1] * a[2]
    total = 0
    for A, r, n in _fiber_arguments(a, e):
        cofactor = prod // n
        total += cot_sum_numerator(A, r, n) * cofactor * cofactor
    return total


def rho_natural_float(a: tuple[int, int, int], e: int) -> FloatEstimate:
    """rho of the naturally oriented sphere, -3 - 2 * sum_i (2/a_i) S(a/a_i, e,
    a_i), from the float kernel; the bound adds the kernels' bounds to the
    rounding of the few operations here."""
    total = total_err = 0.0
    for A, r, n in _fiber_arguments(a, e):
        v, b = _kernels.cot_sum(A, r, n)
        total += (2.0 / n) * v
        total_err += (2.0 / n) * b
    err = 2.0 * total_err + 8 * _kernels.EPS * (3.0 + 2.0 * abs(total))
    return FloatEstimate(-3.0 - 2.0 * total, err)


@dataclass(frozen=True)
class RhoValue:
    exact: Fraction
    float_check: FloatEstimate

    def __post_init__(self):
        x, err = self.float_check.value, self.float_check.error_bound
        # |exact - x| <= err, cleared of denominators
        p, q = self.exact.numerator, self.exact.denominator
        num, den = x.as_integer_ratio()
        err_num, err_den = err.as_integer_ratio()
        if abs(p * den - num * q) * err_den > err_num * q * den:
            raise ConventionMismatch(
                f"float cross-check {x!r} disagrees with exact "
                f"{self.exact} beyond its error bound {err!r}"
            )


def snap_rho(estimate: FloatEstimate, X: BrieskornSphere) -> Fraction:
    """The point p/d of (1/D)Z, D = 4*a1*a2*a3, nearest the estimate x.

    Accepted only if its error bound err is at most MAX_SNAP_ERROR,
    |x - p/d| <= err and 3*err*d*D < 1, all tested in exact integers.  Two distinct rationals with denominators d and v <= D are at
    least 1/(d*D) apart, so every other candidate then lies more than 2*err
    from x and p/d is the only rational of denominator <= D the estimate can
    mean.  Raises SnapFailure otherwise.
    """
    x, err = estimate.value, estimate.error_bound
    if err > MAX_SNAP_ERROR:
        raise SnapFailure(f"error bound {err!r} exceeds {MAX_SNAP_ERROR}")
    D = SNAP_DENOMINATOR_FACTOR * X.fiber_product
    num, den = x.as_integer_ratio()
    err_num, err_den = err.as_integer_ratio()
    p = (2 * num * D + den) // (2 * den)  # round(x * D)
    d = D // math.gcd(p, D)
    # |x - p/D| <= err, cleared of denominators
    if abs(num * D - p * den) * err_den > err_num * den * D:
        raise SnapFailure(f"no point of (1/{D})Z within {err!r} of {x!r}")
    if 3 * err_num * d * D >= err_den:
        raise SnapFailure(f"error bound {err!r} too wide to single out {p}/{D} near {x!r}")
    return Fraction(p, D)


def rho_adjoint(c: FlatConnection, path: str = "exact") -> RhoValue:
    """Adjoint rho invariant of one connection on its oriented host sphere.

    path 'exact' is pure integer arithmetic; 'float', the first aggregate of
    `c_correction`, rounds the double sum onto the lattice of `snap_rho` and
    escalates to the integer kernel on a SnapFailure.  The float cross-check
    is always attached.
    """
    if path not in PATHS:
        raise ValueError(f"path must be one of {PATHS}, got {path!r}")
    X = c.host
    sign = X.orientation
    nat_float = rho_natural_float(X.a, c.e)
    est = FloatEstimate(sign * nat_float.value, nat_float.error_bound)
    if path == "float":
        try:
            exact = snap_rho(est, X)
        except SnapFailure:
            exact = _rho_exact(X, c.e)
    else:
        exact = _rho_exact(X, c.e)
    return RhoValue(exact=exact, float_check=est)


def _rho_exact(X: BrieskornSphere, e: int) -> Fraction:
    """rho_X = orientation * (-3 + N / a^2), one Fraction built from the
    integer N of `cotangent_numerator`."""
    square = X.fiber_product ** 2
    return Fraction(X.orientation * (cotangent_numerator(X.a, e) - 3 * square), square)


def _aggregate(X: BrieskornSphere, path: str) -> Fraction:
    """(-eps/8) * the sum of rho over the connections, summed as integers over
    L = 4 a^2: snapped values lie on (1/4a)Z and exact ones on (1/a^2)Z, so
    every denominator divides L."""
    L = 4 * X.fiber_product ** 2
    total = 0
    for c in enumerate_connections(X):
        rho = rho_adjoint(c, path=path).exact
        scale, rest = divmod(L, rho.denominator)
        if rest:
            raise ConventionMismatch(f"rho {rho} of {c.L} on {X} has a denominator "
                                     f"that does not divide {L}")
        total += rho.numerator * scale
    return Fraction(-X.orientation * total, 8 * L)


@lru_cache(maxsize=1)
def verify_convention() -> bool:
    """Check the frozen conventions against the q = 3, K = +-1 anchors."""
    for q, K, want in _ANCHORS:
        got = _aggregate(from_surgery(q, K), "exact")
        if got != want:
            raise ConventionMismatch(
                f"calibration anchor C({q},{K}) = {want} but computed {got}"
            )
    return True


def c_correction(X: BrieskornSphere) -> Fraction:
    """C(X) = (-eps/8) * sum of adjoint rho over the irreducible connections.

    eps is the orientation sign, so the value is orientation-invariant.  The
    snapped float aggregate is returned only if it equals the integer one;
    ConventionMismatch otherwise.  A sphere over MAX_KERNEL_WORK (`flat_moduli`)
    is refused with TooManyConnections before any connection is enumerated.
    """
    check_kernel_work([(X.q, X.K)])
    value = _aggregate(X, "float")
    exact_value = _aggregate(X, "exact")
    if value != exact_value:
        raise ConventionMismatch(
            f"snapped float aggregate {value} disagrees with integer aggregate {exact_value}"
        )
    return value


# Checked once, at import, so no computation pays for it later.
verify_convention()
