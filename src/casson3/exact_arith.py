"""Float estimates with error bounds, and snapping them to the nearest
rational of bounded denominator.

Rational values are stdlib fractions.Fraction throughout: always in lowest
terms with positive denominator, immutable and hashable, and arithmetic never
rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AmbiguousSnap, NoCandidate


@dataclass(frozen=True)
class FloatEstimate:
    """A double plus a conservative bound on its accumulated summation error."""

    value: float
    error_bound: float

    def __post_init__(self):
        if not (self.error_bound >= 0.0):
            raise ValueError("error_bound must be >= 0")


def farey_neighbors(r: Fraction, denominator_bound: int) -> tuple[Fraction, Fraction]:
    """Immediate left and right neighbors of r in the Farey sequence of order
    denominator_bound (the closest other fractions with denominator <= bound)."""
    p, q = r.numerator, r.denominator
    if q > denominator_bound:
        raise ValueError("r must itself have denominator <= bound")
    if q == 1:
        b = denominator_bound
        return Fraction(p * b - 1, b), Fraction(p * b + 1, b)
    # right neighbor u/v: u*q - v*p = 1, v maximal <= bound
    v0 = (-pow(p, -1, q)) % q
    v = v0 + q * ((denominator_bound - v0) // q)
    right = Fraction(1 + p * v, q * v)
    # left neighbor u/v: v*p - u*q = 1, v maximal <= bound
    v0 = pow(p, -1, q) % q
    v = v0 + q * ((denominator_bound - v0) // q)
    left = Fraction(p * v - 1, q * v)
    return left, right


def snap_to_rational(x: FloatEstimate, denominator_bound: int) -> Fraction:
    """Nearest rational with denominator <= denominator_bound, provided it lies
    within x.error_bound of x.value and no competitor sits within twice that
    window (continued-fraction search via Fraction.limit_denominator).

    Raises NoCandidate / AmbiguousSnap when the window conditions fail.
    """
    if denominator_bound < 1:
        raise ValueError("denominator_bound must be >= 1")
    if not math.isfinite(x.value):
        raise NoCandidate(f"non-finite value {x.value!r}")
    exact_x = Fraction(x.value)
    err = Fraction(x.error_bound)
    best = exact_x.limit_denominator(denominator_bound)
    if abs(exact_x - best) > err:
        raise NoCandidate(
            f"no rational with denominator <= {denominator_bound} within "
            f"{x.error_bound!r} of {x.value!r}"
        )
    left, right = farey_neighbors(best, denominator_bound)
    runner_up = min(left, right, key=lambda c: abs(exact_x - c))
    if abs(exact_x - runner_up) <= 2 * err:
        raise AmbiguousSnap(
            f"{best} and {runner_up} both lie near {x.value!r} +- {x.error_bound!r}"
        )
    return best
