"""Laurent polynomials with exact rational coefficients, stored lowest power
first, and exact polynomial fits checked at every sample beyond the ones
they interpolate.

Exact arithmetic makes "fits exactly or not" decidable, so there is no
least-squares notion here: a fit either passes through every remaining
sample or the data is not polynomial of the claimed degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .errors import DegreeExceeded

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class RationalPoly:
    """Laurent polynomial sum_i coeffs[i] * x^(low + i).

    Canonical form: no trailing zero coefficients, and low = min(0, lowest
    power with a nonzero coefficient), so an ordinary polynomial has low == 0
    and coeffs[i] is its x^i coefficient.  The zero polynomial is ((), 0).
    """

    coeffs: tuple[Fraction, ...]
    low: int = 0

    def __post_init__(self):
        coeffs = (Fraction(0),) * max(self.low, 0) + tuple(Fraction(c) for c in self.coeffs)
        low = min(self.low, 0)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        start = 0
        while start < min(end, -low) and coeffs[start] == 0:
            start += 1
        object.__setattr__(self, "coeffs", coeffs[start:end])
        object.__setattr__(self, "low", low + start if start < end else 0)

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @property
    def degree(self) -> int:
        """Highest power present; -1 for the zero polynomial (and for x^-1)."""
        return self.low + len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        """Coefficient of x^n."""
        i = n - self.low
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """(power, coefficient) of each nonzero term, highest power first."""
        for i in reversed(range(len(self.coeffs))):
            if self.coeffs[i]:
                yield self.low + i, self.coeffs[i]

    def shift(self, k: int) -> "RationalPoly":
        """Multiply by x^k."""
        return RationalPoly(self.coeffs, self.low + k)

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * Fraction(x) ** self.low if self.low else acc

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        low = min(self.low, other.low)
        out = [Fraction(0)] * (max(self.degree, other.degree) + 1 - low)
        for p in (self, other):
            for i, c in enumerate(p.coeffs, p.low - low):
                out[i] += c
        return RationalPoly(tuple(out), low)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs), self.low)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other: Union["RationalPoly", Scalar]) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            return RationalPoly(tuple(c * other for c in self.coeffs), self.low)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(tuple(out), self.low + other.low)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def format(self, var: str = "K") -> str:
        """Human-readable form, highest power first, e.g. '5/2*K^2 - 9/4*K';
        zero coefficients are left out and the zero polynomial reads '0'."""
        parts = []
        for n, c in self.terms():
            mag = abs(c)
            if n == 0:
                body = str(mag)
            else:
                power = var if n == 1 else f"{var}^{n}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) or "0"


def fit_and_verify(values: Mapping[Scalar, Scalar], degree: int) -> RationalPoly:
    """Fit a degree-`degree` polynomial through the first degree+1 samples
    (keys sorted ascending, Lagrange form) and require every remaining sample
    to lie on it exactly; raises DegreeExceeded otherwise.  The caller decides
    how many samples to check by how many it passes; fewer than degree+1 is
    a ValueError."""
    if len(values) < degree + 1:
        raise ValueError(f"need at least {degree + 1} samples, got {len(values)}")
    keys = sorted(values)
    fit_keys, check_keys = keys[: degree + 1], keys[degree + 1:]
    poly = RationalPoly.zero()
    for xi in fit_keys:
        basis, denom = RationalPoly((1,)), Fraction(1)
        for xj in fit_keys:
            if xj != xi:
                basis = basis * RationalPoly((-xj, 1))
                denom *= xi - xj
        poly = poly + basis * (Fraction(values[xi]) / denom)
    for k in check_keys:
        got = poly(k)
        if got != values[k]:
            raise DegreeExceeded(
                f"degree-{degree} fit predicts {got} at {k}, data says {values[k]}"
            )
    return poly
