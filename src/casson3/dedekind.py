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

Two evaluation paths are provided and cross-validated:

* ``float``   - the numpy kernel's double sum, snapped to the unique rational
                with denominator <= 4*a1*a2*a3; escalates to the exact path
                if the snap window fails.
* ``exact``   - closed form over the integers: writing cot(pi j/n) =
                (i/n)(x+1)U(x) at x = exp(2 pi i j/n) with U(x) = sum r x^r
                and expanding, S(A,e,n) = -(2 N(0) - N(1) - N(-1)) / (4n)
                where N(s) = sum_r p_r p_{(-A r - e s) mod n} and
                p = [n-1, 1, 3, ..., 2n-3].

``cot_sum_lattice`` rewrites the same integer N(s) as weighted sums of
greatest integer functions (lattice points between lines); it is no path of
its own, only an independent reference for the exact kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _kernels
from .errors import AmbiguousSnap, ConventionMismatch, NoCandidate, SnapFailure
from .exact_arith import FloatEstimate, snap_to_rational
from .flat_moduli import FlatConnection, enumerate_connections
from .seifert import BrieskornSphere, from_surgery

PATHS = ("float", "exact")

SNAP_DENOMINATOR_FACTOR = 4  # snap bound is 4*a1*a2*a3
MAX_SNAP_ERROR = 1e-6  # snapping is refused above this accumulated error

# frozen calibration anchors: aggregate corrections for q = 3, K = +-1
_ANCHORS = ((3, 1, Fraction(17, 12)), (3, -1, Fraction(-41, 84)))


@lru_cache(maxsize=None)
def cot_sum_exact(A: int, e: int, n: int) -> Fraction:
    """S(A, e, n) as an exact rational via the closed convolution form."""
    A %= n
    e %= n
    p = [n - 1] + [2 * j - 1 for j in range(1, n)]

    def N(s: int) -> int:
        return sum(p[r] * p[(-A * r - e * s) % n] for r in range(n))

    return Fraction(-(2 * N(0) - N(1) - N(-1)), 4 * n)


@lru_cache(maxsize=None)
def cot_sum_lattice(A: int, e: int, n: int) -> Fraction:
    """S(A, e, n) via weighted floor sums (lattice points between lines).

    Expands p_r = (2r - 1) + n*[r = 0] and sigma(r) = (-Ar - es) mod n =
    (-Ar - es) - n*floor((-Ar - es)/n) inside N(s); the floor sum is a
    weighted count of lattice points under the line y = (-Ax - es)/n.
    """
    A %= n
    e %= n

    def N(s: int) -> int:
        q_sum = 0
        floor_sum = 0
        for r in range(n):
            u = -A * r - e * s
            q_sum += (2 * r - 1) * (2 * u - 1)
            floor_sum += (2 * r - 1) * (u // n)
        sigma_at_0 = (-e * s) % n
        r_hitting_0 = (pow(-A, -1, n) * e * s) % n
        total = (q_sum - 2 * n * floor_sum
                 + n * (2 * sigma_at_0 - 1) + n * (2 * r_hitting_0 - 1))
        if sigma_at_0 == 0:
            total += n * n
        return total

    return Fraction(-(2 * N(0) - N(1) - N(-1)), 4 * n)


def cotangent_total_exact(a: tuple[int, int, int], e: int) -> Fraction:
    """sum_i (2/a_i) S(a/a_i, e, a_i), exactly."""
    prod = a[0] * a[1] * a[2]
    return sum((Fraction(2, ai) * cot_sum_exact(prod // ai, e, ai) for ai in a), Fraction(0))


def cotangent_total_float(a: tuple[int, int, int], e: int) -> FloatEstimate:
    prod = a[0] * a[1] * a[2]
    value = 0.0
    err = 0.0
    for ai in a:
        v, b = _kernels.cot_sum(prod // ai, e, ai)
        value += (2.0 / ai) * v
        err += (2.0 / ai) * b
    return FloatEstimate(value, err)


def rho_natural_exact(a: tuple[int, int, int], e: int) -> Fraction:
    """rho of the naturally oriented sphere: -2*(3/2 + cotangent total)."""
    return -3 - 2 * cotangent_total_exact(a, e)


def rho_natural_float(a: tuple[int, int, int], e: int) -> FloatEstimate:
    total = cotangent_total_float(a, e)
    value = -3.0 - 2.0 * total.value
    err = 2.0 * total.error_bound + 8 * _kernels.EPS * (3.0 + 2.0 * abs(total.value))
    return FloatEstimate(value, err)


@dataclass(frozen=True)
class RhoValue:
    exact: Fraction
    float_check: FloatEstimate
    connection: FlatConnection

    def __post_init__(self):
        resid = abs(self.exact - Fraction(self.float_check.value))
        if resid > Fraction(self.float_check.error_bound):
            raise ConventionMismatch(
                f"float cross-check {self.float_check.value!r} disagrees with exact "
                f"{self.exact} beyond its error bound {self.float_check.error_bound!r}"
            )


def snap_rho(estimate: FloatEstimate, X: BrieskornSphere) -> Fraction:
    """Snap a float rho estimate at the denominator bound 4*a1*a2*a3."""
    if estimate.error_bound > MAX_SNAP_ERROR:
        raise SnapFailure(f"error bound {estimate.error_bound!r} exceeds {MAX_SNAP_ERROR}")
    try:
        return snap_to_rational(estimate, SNAP_DENOMINATOR_FACTOR * X.fiber_product)
    except (NoCandidate, AmbiguousSnap) as exc:
        raise SnapFailure(str(exc)) from exc


def rho_adjoint(c: FlatConnection, path: str = "float") -> RhoValue:
    """Adjoint rho invariant of one connection on its oriented host sphere.

    path 'float' snaps the double sum and silently escalates to the exact
    path on a snap failure; 'exact' is pure integer arithmetic.  The float
    cross-check is always attached.
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
            exact = sign * rho_natural_exact(X.a, c.e)
    else:
        exact = sign * rho_natural_exact(X.a, c.e)
    return RhoValue(exact=exact, float_check=est, connection=c)


def _aggregate(X: BrieskornSphere, path: str) -> Fraction:
    eps = X.orientation
    total = sum((rho_adjoint(c, path=path).exact for c in enumerate_connections(X)),
                Fraction(0))
    return Fraction(-eps, 8) * total


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


def c_correction(X: BrieskornSphere, path: str = "float") -> Fraction:
    """C(X) = (-eps/8) * sum of adjoint rho over the irreducible connections.

    eps is the orientation sign, so the value is orientation-invariant.  The
    float path's aggregate is verified against the exact path.
    """
    verify_convention()
    value = _aggregate(X, path)
    if path == "float":
        exact_value = _aggregate(X, "exact")
        if value != exact_value:
            raise ConventionMismatch(
                f"float-path aggregate {value} disagrees with exact path {exact_value}"
            )
    return value
