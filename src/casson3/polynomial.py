"""Polynomials with exact rational coefficients, stored lowest power first,
and exact polynomial fits of least degree, checked at every sample beyond
the ones they interpolate.

Exact arithmetic makes "fits exactly or not" decidable, so there is no
least-squares notion here: the degree is the least one whose fit passes
through every sample, and a fit that no sample would check is refused.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterator, Mapping, Union

from .errors import DegreeExceeded

Scalar = Union[int, Fraction]

# Highest degree `fit_and_verify` tries.  Its targets are at most cubic in K
# (Lambda and A quadratic, the cleared B and C cubic), and samples that lie
# on no low-degree polynomial would otherwise build every divided-difference
# level, O(samples^2) growing fractions, before being refused.
MAX_FIT_DEGREE = 8


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial sum_i coeffs[i] * x^i.

    Canonical form: no trailing zero coefficients, so the zero polynomial is ()."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", coeffs[:end])

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @property
    def degree(self) -> int:
        """Highest power present; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        """Coefficient of x^n."""
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else Fraction(0)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """(power, coefficient) of each nonzero term, highest power first."""
        for n in reversed(range(len(self.coeffs))):
            if self.coeffs[n]:
                yield n, self.coeffs[n]

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return RationalPoly(tuple(a + b for a, b in pairs))

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPoly(tuple(out))

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


def fit_and_verify(values: Mapping[Scalar, Scalar]) -> RationalPoly:
    """The least-degree polynomial through the samples.  Its degree d is the
    first level of Newton divided differences (keys sorted) with two or more
    entries, all equal: the fit interpolates the first d + 1 samples, and that
    level checks the rest, in O(samples * d).  The zero polynomial has d = 0.
    Raises DegreeExceeded if no sample would check the fit or d would exceed
    MAX_FIT_DEGREE, and ValueError for fewer than 2 samples."""
    if len(values) < 2:
        raise ValueError(f"need at least 2 samples, got {len(values)}")
    xs = sorted(values)
    level = [Fraction(values[x]) for x in xs]
    newton = []  # f[x_0, ..., x_k]: the first entry of each level k
    capped = len(xs) - 2 > MAX_FIT_DEGREE
    for k in range(MAX_FIT_DEGREE + 1 if capped else len(xs) - 1):
        newton.append(level[0])
        if all(v == level[0] for v in level):
            break
        level = [(b - a) / (xs[i + k + 1] - xs[i])
                 for i, (a, b) in enumerate(zip(level, level[1:]))]
    else:
        if capped:
            raise DegreeExceeded(f"no polynomial of degree at most {MAX_FIT_DEGREE} "
                                 f"(MAX_FIT_DEGREE) passes through the {len(xs)} samples")
        raise DegreeExceeded(f"no polynomial of degree below {len(xs) - 1} passes "
                             f"through the {len(xs)} samples, so none checks a fit")
    poly = RationalPoly.zero()
    for x, c in reversed(list(zip(xs, newton))):
        poly = poly * RationalPoly((-x, 1)) + RationalPoly((c,))
    return poly
