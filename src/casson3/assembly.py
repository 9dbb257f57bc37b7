"""Assembly of the perturbative SU(3) invariant for 1/K surgeries on (2,q)
torus knots:

    Lambda = A + B + C + D

where A counts the irreducible SU(3) representations (all with positive
sign), B is the normal-coupling rho correction over the irreducible SU(2)
connections, C = (-eps/8) * sum of adjoint rho invariants (computed here from
the cotangent sums), and D = -(1/4) * (chain-complex correction term), which
vanishes identically on this family.  A and B are ingested as reference
closed forms; C and D are computed.  The lowercase invariant lambda_su3 is
A + B, the small-perturbation variant without the C and D corrections.

Reference values for golden comparisons: Lambda is stored, like A and B,
for the q of the table (SUPPORTED_Q) only; C has one closed form for every
odd q >= 3 (`reference_C`), fitted by exact interpolation and checked
against the computation, not derived.  B and C are cubics in K over one
factor, `cleared_denominator`.  4 * Lambda is always an integer; a report
forms Lambda once, on construction, where that is checked.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dedekind import c_correction
from .errors import Casson3Error, MissingClosedForm
from .flat_moduli import count_connections
from .floer import build_floer_complex, floer_correction
from .polynomial import RationalPoly
from .seifert import BrieskornSphere, check_surgery, from_surgery

# The stored closed forms of q = 3, 5, 7, 9, each a RationalPoly in K with
# coefficients lowest power first: A and the Lambda branches are quadratics,
# and B is the cubic numerator it has over `cleared_denominator(q, K)`.
_TABLE: dict[int, dict[str, RationalPoly]] = {
    3: {
        "A": RationalPoly((0, -1, 3)),
        "B": RationalPoly((0, 26, -168, -48)),
        "Lambda+": RationalPoly((0, Fraction(-9, 4), Fraction(10, 4))),
        "Lambda-": RationalPoly((0, Fraction(-11, 4), Fraction(10, 4))),
    },
    5: {
        "A": RationalPoly((0, -9, 33)),
        "B": RationalPoly((0, 302, -3240, -400)),
        "Lambda+": RationalPoly((0, Fraction(-79, 4), Fraction(126, 4))),
        "Lambda-": RationalPoly((0, Fraction(-85, 4), Fraction(126, 4))),
    },
    7: {
        "A": RationalPoly((0, -26, 138)),
        "B": RationalPoly((0, 1212, -18256, -1568)),
        "Lambda+": RationalPoly((0, Fraction(-230, 4), Fraction(540, 4))),
        "Lambda-": RationalPoly((0, Fraction(-242, 4), Fraction(540, 4))),
    },
    9: {
        "A": RationalPoly((0, -58, 390)),
        "B": RationalPoly((0, 3428, -66384, -4320)),
        "Lambda+": RationalPoly((0, Fraction(-514, 4), Fraction(1540, 4))),
        "Lambda-": RationalPoly((0, Fraction(-534, 4), Fraction(1540, 4))),
    },
}

SUPPORTED_Q = tuple(sorted(_TABLE))


def cleared_denominator(q: int, K: int) -> int:
    """4q(2qK - 1): B and C are each a cubic in K over this factor."""
    return 4 * q * (2 * q * K - 1)


def _forms(q: int) -> dict:
    try:
        return _TABLE[q]
    except KeyError:
        raise MissingClosedForm(f"no stored closed forms for q={q}; "
                                f"supported: {SUPPORTED_Q}") from None


def lambda_su2(X: BrieskornSphere) -> Fraction:
    """SU(2) Casson invariant of the oriented sphere X: its flat connections
    counted with the sign -orientation, the sign of K on `from_surgery`'s."""
    return Fraction(-X.orientation * count_connections(X.q, X.K))


def reference_A(q: int, K: int) -> Fraction:
    check_surgery(q, K)
    return _forms(q)["A"](K)


def reference_B(q: int, K: int) -> Fraction:
    check_surgery(q, K)
    return _forms(q)["B"](K) / cleared_denominator(q, K)


def reference_C(q: int, K: int) -> Fraction:
    """C for every odd q >= 3, from the closed form, with sigma = sign K,

        4q(2qK - 1) C = (q^2 - 1) [q^2 K^3/6 + q(4q^2 + 3 sigma q - 3) K^2/12
                                   - (q^2 + sigma q - 1) K/8].

    Fitted by exact interpolation (each K-coefficient of the cleared
    numerator as a polynomial in q, on q = 3..17) and checked against the
    computed C, not derived; `tests/test_assembly.py::
    test_reference_c_fit_is_rederived_from_the_computation` repeats the fit.
    """
    check_surgery(q, K)
    sigma = 1 if K > 0 else -1
    # the bracket times 24, so the numerator is an integer
    bracket = (4 * q * q * K ** 3 + 2 * q * (4 * q * q + 3 * sigma * q - 3) * K * K
               - 3 * (q * q + sigma * q - 1) * K)
    return Fraction((q * q - 1) * bracket, 24 * cleared_denominator(q, K))


def reference_Lambda(q: int, K: int) -> Fraction:
    check_surgery(q, K)
    return _forms(q)["Lambda+" if K > 0 else "Lambda-"](K)


@dataclass(frozen=True)
class InvariantReport:
    """Stores q, K, the exact terms A, B, C, D and lambda_su2, which changes
    sign with the orientation; lambda_su3 = A + B and Lambda_su3 =
    A + B + C + D (formed once) are derived, and 4*Lambda_su3 must be an
    integer.  D is -(1/4) times the chain-complex correction term (zero on
    this family, under either reading of the correction's normalization)."""

    q: int
    K: int
    A: Fraction
    B: Fraction
    C: Fraction
    D: Fraction
    lambda_su2: Fraction

    def __post_init__(self):
        if 4 % self.Lambda_su3.denominator:
            raise Casson3Error(f"4 * Lambda = {4 * self.Lambda_su3} is not an integer")

    @property
    def lambda_su3(self) -> Fraction:
        return self.A + self.B

    @cached_property
    def Lambda_su3(self) -> Fraction:
        return self.A + self.B + self.C + self.D

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "K": self.K,
            "A": str(self.A),
            "B": str(self.B),
            "C": str(self.C),
            "D": str(self.D),
            "lambda_su2": str(self.lambda_su2),
            "lambda_su3": str(self.lambda_su3),
            "Lambda_su3": str(self.Lambda_su3),
            "four_Lambda_integral": 4 % self.Lambda_su3.denominator == 0,
        }


def assemble_on_sphere(X: BrieskornSphere) -> InvariantReport:
    """Report for the sphere X as given (either orientation), with C computed
    from the cotangent sums on X and `lambda_su2` of X as oriented; A
    is looked up first, so a q without closed forms raises MissingClosedForm
    before any work."""
    q, K = X.q, X.K
    A = reference_A(q, K)
    B = reference_B(q, K)
    C = c_correction(X)
    D = Fraction(-floer_correction(build_floer_complex(X)), 4)
    return InvariantReport(q=q, K=K, A=A, B=B, C=C, D=D, lambda_su2=lambda_su2(X))


def assemble(q: int, K: int) -> InvariantReport:
    """Full invariant report for 1/K surgery on the (2,q) torus knot."""
    return assemble_on_sphere(from_surgery(q, K))

