"""Dense univariate polynomials with exact rational coefficients."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def format_terms(terms: Iterable[tuple[int, Scalar]], var: str) -> str:
    """Human-readable sum of (power, coefficient) terms given highest power
    first, e.g. '5/2*K^2 - 9/4*K'; zero coefficients are left out and an
    empty sum reads '0'."""
    parts = []
    for n, c in terms:
        if c == 0:
            continue
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


def _strip(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial sum_i coeffs[i] * x^i; trailing zero coefficients are stripped,
    so the leading coefficient is nonzero unless the polynomial is zero."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(tuple(Fraction(c) for c in self.coeffs)))

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Scalar]) -> "RationalPoly":
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RationalPoly(tuple(a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))))

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other: Union["RationalPoly", Scalar]) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            return RationalPoly(tuple(c * other for c in self.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(tuple(out))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def format(self, var: str = "K") -> str:
        """Human-readable form, highest power first, e.g. '5/2*K^2 - 9/4*K'."""
        return format_terms(reversed(list(enumerate(self.coeffs))), var)
