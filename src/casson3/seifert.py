"""Brieskorn homology spheres Sigma(a1,a2,a3) as Seifert-fibered data.

A sphere is stored with its Seifert invariants (b0; b1, b2, b3) over the
multiplicities (a1, a2, a3), an explicit orientation sign relative to the
natural orientation of the singularity link, and, when it came from surgery,
the (q, K) of the 1/K surgery on the (2,q) torus knot that produced it:

    K = k > 0  ->  Sigma(2, q, 2qk-1) with orientation -1,
                   (b0; b) = (-1; 1, (q-1)/2, k)
    K = -k < 0 ->  Sigma(2, q, 2qk+1) with orientation +1,
                   (b0; b) = (1; -1, -(q-1)/2, -k)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvalidSurgery


@dataclass(frozen=True)
class BrieskornSphere:
    a: tuple[int, int, int]
    b0: int
    b: tuple[int, int, int]
    orientation: int
    surgery_origin: Optional[tuple[int, int]] = None  # (q, K)

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError(f"orientation must be +-1, got {self.orientation}")
        if len(self.a) != 3 or len(self.b) != 3:
            raise ValueError("need exactly three exceptional fibers")
        for ai in self.a:
            if ai < 2:
                raise ValueError(f"multiplicity {ai} < 2")
        for i in range(3):
            for j in range(i + 1, 3):
                if math.gcd(self.a[i], self.a[j]) != 1:
                    raise ValueError(f"multiplicities {self.a[i]}, {self.a[j]} not coprime")
        for ai, bi in zip(self.a, self.b):
            if math.gcd(bi, ai) != 1:
                raise ValueError(f"gcd(b={bi}, a={ai}) != 1")
        if abs(self.fiber_product * self.euler_rational()) != 1:
            raise ValueError(f"not a homology sphere: {self}")

    @property
    def fiber_product(self) -> int:
        """a = a1*a2*a3."""
        a1, a2, a3 = self.a
        return a1 * a2 * a3

    def euler_rational(self) -> Fraction:
        """b0 + sum b_i/a_i; equals +-1/a for a homology sphere."""
        return self.b0 + sum(Fraction(bi, ai) for ai, bi in zip(self.a, self.b))


def check_surgery(q: int, K: int) -> None:
    """Raise InvalidSurgery unless q is odd and >= 3 and K is nonzero."""
    if q < 3 or q % 2 == 0:
        raise InvalidSurgery(f"q must be odd and >= 3, got {q}")
    if K == 0:
        raise InvalidSurgery("K must be nonzero")


def from_surgery(q: int, K: int) -> BrieskornSphere:
    """Sphere obtained by 1/K surgery on the (2,q) torus knot."""
    check_surgery(q, K)
    m = (q - 1) // 2
    k = abs(K)
    if K > 0:
        return BrieskornSphere(
            a=(2, q, 2 * q * k - 1), b0=-1, b=(1, m, k),
            orientation=-1, surgery_origin=(q, K),
        )
    return BrieskornSphere(
        a=(2, q, 2 * q * k + 1), b0=1, b=(-1, -m, -k),
        orientation=1, surgery_origin=(q, K),
    )


def reverse_orientation(X: BrieskornSphere) -> BrieskornSphere:
    """Negate every Seifert framing integer and flip the orientation sign."""
    return BrieskornSphere(
        a=X.a, b0=-X.b0, b=tuple(-bi for bi in X.b),
        orientation=-X.orientation, surgery_origin=X.surgery_origin,
    )
