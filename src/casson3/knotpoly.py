"""Normalized torus-knot Alexander polynomials and the quadratic-difference
report for the surgery-family invariants."""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotCoprime
from .flat_moduli import count_connections, enumerate_connections
from .polynomial import RationalPoly
from .seifert import from_surgery


def alexander_torus(p: int, q: int) -> RationalPoly:
    """Normalized Alexander polynomial of the (p,q) torus knot: the symmetric
    Laurent form of (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), satisfying
    D(t) = D(1/t) and D(1) = 1.

    The sum of t^s over the semigroup <p, q> is (1 - t^{pq}) / ((1 - t^p)(1 - t^q)),
    so the quotient is (1 - t) times it, which is 1 - (1 - t) * sum of t^g over
    the (p-1)(q-1)/2 gaps g of the semigroup.
    """
    if p < 1 or q < 1:
        raise ValueError("p, q must be positive")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p},{q}) != 1")
    conductor = (p - 1) * (q - 1)  # every n >= conductor lies in <p, q>
    semigroup = {a * p + b * q for a in range(q) for b in range(p)}
    gaps = RationalPoly(tuple(int(g not in semigroup) for g in range(conductor)))
    quotient = RationalPoly((1,)) - RationalPoly((1, -1)) * gaps
    return quotient.shift(-(conductor // 2))


def second_derivative_at_one(P: RationalPoly) -> Fraction:
    """d^2/dt^2 at t = 1: sum_n n (n - 1) coeff(n)."""
    return sum((n * (n - 1) * c for n, c in P.terms()), Fraction(0))


def check_conjecture(q: int, fit_plus: RationalPoly, fit_minus: RationalPoly) -> dict:
    """Compare the two quadratic branches of the invariant against the
    representation count and the Alexander second derivative.

    Reports (never asserts): whether fit_plus - fit_minus equals (1/4) N(q) K
    with N(q) = count_connections(q, 1), whether N(q) matches the enumerated
    irreducible SU(2) representations at K = 1 and |D''(1)| of the (2,q) torus knot,
    and how the as-stated form 'P+ = P- - |K| D''(1)' differs (a factor that
    is flagged, not resolved).
    """
    n_q = count_connections(q, 1)
    diff = fit_plus - fit_minus
    expected = RationalPoly((0, Fraction(n_q, 4)))
    d2 = second_derivative_at_one(alexander_torus(2, q))
    stated = RationalPoly((0, -d2))  # P+ - P- per the stated form
    factor = stated[1] / diff[1] if diff.degree == 1 else None
    rep_count = len(enumerate_connections(from_surgery(q, 1)))
    return {
        "q": q,
        "N": n_q,
        "difference": diff.format("K"),
        "difference_equals_quarter_N_K": diff == expected,
        "rep_count_per_k": rep_count,
        "rep_count_matches_N": rep_count == n_q,
        "alexander_second_derivative": str(d2),
        "abs_second_derivative_matches_N": abs(d2) == n_q,
        "stated_form_holds": diff == stated,
        "stated_vs_actual_factor": None if factor is None else str(factor),
    }
