"""The (2,q) torus knot's Alexander polynomial and the quadratic-difference
report for the surgery-family invariants.

The symmetric Delta(t) = Delta(1/t) has negative powers, so it is held
centred: as the palindromic ordinary polynomial P(t) = t^(deg P/2) Delta(t).
"""
from __future__ import annotations

from fractions import Fraction

from .flat_moduli import count_connections, enumerate_connections
from .polynomial import RationalPoly
from .seifert import check_surgery, from_surgery


def alexander_torus(q: int) -> RationalPoly:
    """P(t) = t^g Delta(t) for the (2,q) torus knot, g = (q - 1)/2: the
    palindromic sum_{i<q} (-t)^i = (t^q + 1)/(t + 1)
    = (t^{2q} - 1)(t - 1) / ((t^2 - 1)(t^q - 1)), with P(1) = Delta(1) = 1.
    Raises InvalidSurgery unless q is odd and >= 3."""
    check_surgery(q, 1)
    return RationalPoly(tuple((-1) ** i for i in range(q)))


def second_derivative_at_one(P: RationalPoly) -> Fraction:
    """d^2/dt^2 at t = 1 of the centred t^(-deg P/2) P(t):
    sum_n m (m - 1) coeff(n) with m = n - deg P/2."""
    centre = Fraction(P.degree, 2)
    return sum(((n - centre) * (n - centre - 1) * c for n, c in P.terms()), Fraction(0))


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
    d2 = second_derivative_at_one(alexander_torus(q))
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
