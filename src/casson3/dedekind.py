"""Adjoint rho invariants of flat connections via Dedekind cotangent sums.

For the sphere Sigma(a1,a2,a3) with its natural orientation and a flat
connection with invariant e, the rho invariant of the adjoint coupling is

    rho_nat(e) = -2 * (3/2 + sum_{i=1..3} (2/a_i) * S(a/a_i, e, a_i)),

    S(A, e, n) = sum_{m=1}^{n-1} cot(pi*A*m/n) cot(pi*m/n) sin^2(pi*e*m/n).

The prefactor (2/a_i), the sine argument and the sign are forced, not
fitted: they make the grading 2 e^2/a + sum_i (2/a_i) S(a/a_i, e, a_i) of
`floer` an integer on every connection, with the classical {1, 5} on
Sigma(2,3,5); a flipped sign, a prefactor 1/a_i or 4/a_i, or a sine argument
2e or e/2 does not.  The q = 3, K = +-1 anchors (17/12 and -41/84) check the
constant -3 and the factor -2 of rho_nat; every other (q, K) value is a
prediction.
A connection on an oriented sphere X has rho_X = orientation * rho_nat, and
the aggregate correction is

    C(X) = (-eps/8) * sum_j rho_X(A_j),   eps = orientation sign of X,

which is therefore orientation-invariant.

C has one evaluation contract: every rho is evaluated by two independent
kernels, and `c_correction` returns the snapped float aggregate only if it
equals the integer one (ConventionMismatch otherwise).

* snapped     - the float kernel's double, rounded by `snap_rho` onto the
                lattice (1/D)Z, D = 4*a1*a2*a3, which holds every rho, if
                its error bound singles out one point; otherwise the value
                escalates to the integer kernel.
* integer     - closed form over the integers: writing cot(pi j/n) =
                (i/n)(x+1)U(x) at x = exp(2 pi i j/n) with U(x) = sum r x^r
                and expanding, S(A,e,n) = -M / (4n) with the integer
                M = 2 N(0) - N(1) - N(-1), where
                N(s) = sum_r p_r p_{(-A r - e s) mod n} and
                p = [n-1, 1, 3, ..., 2n-3].

The integer kernel never forms that convolution per residue: `_kernels`
fills M for all n residues of a fiber in O(n), and its module docstring
states both per-fiber tables, the sphere plan, N, the modulus bound and the
cache policy.  ``cot_sum_exact`` (M as the rational S) and
``cot_sum_lattice`` are independent references for the tests; no computation
calls them.  Both expand the residue (-A r - e s) mod n through a floor,
which leaves a polynomial part in closed form, two boundary terms and one
weighted floor sum sum_r (2r-1) floor((-A r - e s)/n), i.e. a weighted count
of lattice points under a line.  ``cot_sum_exact`` evaluates it in O(log n)
with the Euclid-like recursion of `floor_sums`, the reciprocity step behind
Dedekind sums (Rademacher 1964; Knuth, TAOCP vol. 2, 3.3.3);
``cot_sum_lattice`` counts it term by term in O(n).

The exact arithmetic stays in integers until one Fraction per sphere:
rho_nat(e) = (N - 3 a^2) / a^2 with a = a1*a2*a3 and the integer N = sum_i
M_i (a/a_i)^2 of `_kernels`.  A `RhoValue` holds rho as an integer numerator
over a fixed denominator, 4a if snapped and a^2 if exact, with the float
estimate it was cross-checked against in integers (each `FloatEstimate`
converts itself to integer ratios once).  The aggregate checks once per
denominator that it divides L = 4 a^2, adds the numerators over L and builds
one Fraction per sphere.  Both records are slotted classes whose `__init__`
runs its check once, at construction; nothing assigns to them after it.
`rho_adjoint` reads the sphere's `_kernels.fiber_plan` once per connection
and passes it to `rho_natural_float` or `cotangent_numerator`, which read no
cache; each fiber's kernel call is made on (a/a_i mod a_i, e, a_i).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import _kernels
from ._kernels import cotangent_numerator, fiber_plan
from .errors import ConventionMismatch, SnapFailure
from .flat_moduli import FlatConnection, enumerate_connections
from .seifert import BrieskornSphere, from_surgery

PATHS = ("float", "exact")

SNAP_DENOMINATOR_FACTOR = 4  # every rho lies on (1/D)Z, D = 4*a1*a2*a3
MAX_SNAP_ERROR = 1e-6  # snapping is refused above this accumulated error

# aggregate C for q = 3, K = +-1: they check rho_nat's constant -3 and factor -2
_ANCHORS = ((3, 1, Fraction(17, 12)), (3, -1, Fraction(-41, 84)))


class FloatEstimate:
    """A double plus a conservative bound on its accumulated summation error;
    ConventionMismatch unless both are finite and the bound is >= 0.

    A slotted class, since two are built per connection per aggregate: the
    check runs once, at construction.  It is not frozen; nothing assigns to
    it after construction."""

    __slots__ = ("value", "error_bound", "ratios")

    def __init__(self, value: float, error_bound: float):
        if not (math.isfinite(value) and 0.0 <= error_bound < math.inf):
            raise ConventionMismatch(f"float estimate needs a finite value and a finite "
                                     f"bound >= 0, got {value!r} +- {error_bound!r}")
        self.value = value
        self.error_bound = error_bound
        # (value, error_bound) as two integer ratios, converted once for every exact test
        self.ratios = value.as_integer_ratio() + error_bound.as_integer_ratio()


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


# maxsize of the two reference memos, keyed on residues; no computation calls them.
CACHE_SIZE = 2 ** 14


@lru_cache(maxsize=CACHE_SIZE)
def cot_sum_exact(A: int, e: int, n: int) -> Fraction:
    """S(A, e, n) = -M / (4n) as a rational, M from the floor-sum recursion: a
    reference for the tests and the kernel benchmark, which no computation
    calls.  It evaluates M afresh, so clearing its cache times the whole kernel."""
    return Fraction(-_cot_sum_numerator(A, e, n, _weighted_floor_sum_euclid), 4 * n)


@lru_cache(maxsize=CACHE_SIZE)
def cot_sum_lattice(A: int, e: int, n: int) -> Fraction:
    """S(A, e, n) with the weighted floor sum counted term by term in O(n): a
    reference wrapper that checks the floor-sum recursion of `cot_sum_exact`,
    with which it shares every other step.  Requires gcd(A, n) = 1."""
    return Fraction(-_cot_sum_numerator(A, e, n, _weighted_floor_sum_loop), 4 * n)


def rho_natural_float(plan: tuple, e: int, sign: int) -> FloatEstimate:
    """sign * rho of the naturally oriented sphere of `plan`, -3 - 2 * sum_i
    (2/a_i) S(a/a_i, e, a_i), from the float kernel; the bound adds the
    kernels' bounds to the rounding of the few operations here."""
    (A1, n1, _, w1, _), (A2, n2, _, w2, _), (A3, n3, _, w3, _) = plan[0]
    v1, b1 = _kernels.cot_sum(A1, e, n1)
    v2, b2 = _kernels.cot_sum(A2, e, n2)
    v3, b3 = _kernels.cot_sum(A3, e, n3)
    total = w1 * v1 + w2 * v2 + w3 * v3
    err = 2.0 * (w1 * b1 + w2 * b2 + w3 * b3) + 8 * _kernels.EPS * (3.0 + 2.0 * abs(total))
    return FloatEstimate(sign * (-3.0 - 2.0 * total), err)


class RhoValue:
    """rho = numerator / denominator, not reduced: the denominator is 4a for
    a snapped value and a^2 for an exact one, a = a1*a2*a3.  float_check is
    the float estimate it is cross-checked against when built.

    A slotted class, since two are built per connection per aggregate: the
    cross-check runs once, at construction.  It is not frozen; nothing
    assigns to it after construction."""

    __slots__ = ("numerator", "denominator", "float_check")

    def __init__(self, numerator: int, denominator: int, float_check: FloatEstimate):
        num, den, err_num, err_den = float_check.ratios
        # |p/q - x| <= err, cleared of denominators
        if abs(numerator * den - num * denominator) * err_den > err_num * denominator * den:
            raise ConventionMismatch(f"float cross-check {float_check.value!r} disagrees with "
                                     f"exact {Fraction(numerator, denominator)} beyond its "
                                     f"error bound {float_check.error_bound!r}")
        self.numerator = numerator
        self.denominator = denominator
        self.float_check = float_check

    @property
    def exact(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def snap_rho(estimate: FloatEstimate, D: int) -> int:
    """The numerator p of the point p/D of (1/D)Z nearest the estimate x, for
    a D the caller supplies (4*a1*a2*a3 for a rho); p/D need not be reduced.

    Accepted only if its error bound err <= MAX_SNAP_ERROR, |x - p/D| <= err
    and 3*err*d*D < 1 for the reduced denominator d <= D of p/D (its gcd is
    taken only if 3*err*D*D >= 1), all in exact integers.  Two distinct
    rationals with denominators d and v <= D are at least 1/(d*D) apart, so
    any other lies over 2*err from x: p/D is the only rational of denominator
    <= D the estimate can mean.  Raises SnapFailure otherwise.
    """
    x, err = estimate.value, estimate.error_bound
    if err > MAX_SNAP_ERROR:
        raise SnapFailure(f"error bound {err!r} exceeds {MAX_SNAP_ERROR}")
    num, den, err_num, err_den = estimate.ratios
    p = (2 * num * D + den) // (2 * den)  # round(x * D)
    # |x - p/D| <= err, cleared of denominators
    if abs(num * D - p * den) * err_den > err_num * den * D:
        raise SnapFailure(f"no point of (1/{D})Z within {err!r} of {x!r}")
    if 3 * err_num * D * D >= err_den and 3 * err_num * (D // math.gcd(p, D)) * D >= err_den:
        raise SnapFailure(f"error bound {err!r} too wide to single out {p}/{D} near {x!r}")
    return p


def rho_adjoint(c: FlatConnection, path: str = "exact") -> RhoValue:
    """Adjoint rho invariant of one connection on its oriented host sphere.

    path 'exact' is orientation * (N - 3 a^2) over a^2 in integers, N from
    `cotangent_numerator`; 'float', the first aggregate of `c_correction`,
    snaps the double sum onto (1/4a)Z and escalates to the integer kernel on
    a SnapFailure.  The float cross-check is always attached.
    """
    if path not in PATHS:
        raise ValueError(f"path must be one of {PATHS}, got {path!r}")
    X = c.host
    plan = fiber_plan(X.a)
    est = rho_natural_float(plan, c.e, X.orientation)
    _, prod, square = plan
    if path == "float":
        D = SNAP_DENOMINATOR_FACTOR * prod
        try:
            return RhoValue(snap_rho(est, D), D, est)
        except SnapFailure:
            pass
    return RhoValue(X.orientation * (cotangent_numerator(plan, c.e) - 3 * square), square, est)


def _aggregate(X: BrieskornSphere, path: str) -> Fraction:
    """(-eps/8) * the sum of rho over the connections, summed as integers over
    L = 4 a^2: snapped values lie on (1/4a)Z and exact ones on (1/a^2)Z, so
    every denominator divides L."""
    L = 4 * X.fiber_product ** 2
    total = 0
    scales: dict[int, int] = {}  # denominator -> L / denominator, checked once each
    for c in enumerate_connections(X):
        rho = rho_adjoint(c, path=path)
        if rho.denominator not in scales:
            scales[rho.denominator], rest = divmod(L, rho.denominator)
            if rest:
                raise ConventionMismatch(f"rho {rho.exact} of {c.L} on {X} has a denominator "
                                         f"that does not divide {L}")
        total += rho.numerator * scales[rho.denominator]
    return Fraction(-X.orientation * total, 8 * L)


@lru_cache(maxsize=1)
def verify_convention() -> bool:
    """Check rho_nat's normalisation against the q = 3, K = +-1 anchors."""
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
    ConventionMismatch otherwise.  A sphere over MAX_CONNECTIONS (`flat_moduli`)
    is refused with TooManyConnections by `enumerate_connections`, before any
    connection or kernel table is built.
    """
    value = _aggregate(X, "float")
    exact_value = _aggregate(X, "exact")
    if value != exact_value:
        raise ConventionMismatch(
            f"snapped float aggregate {value} disagrees with integer aggregate {exact_value}"
        )
    return value


# Checked once, at import, so no computation pays for it later.
verify_convention()
