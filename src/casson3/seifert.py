"""Brieskorn homology spheres Sigma(a1,a2,a3) from 1/K surgery on the (2,q)
torus knot.

A sphere is stored as the (q, K) of its surgery and an orientation sign
relative to the natural orientation of the singularity link; the
multiplicities a = (2, q, 2q|K| - sign K) are derived.  The surgery itself
gives, with Seifert invariants (b0; b1, b2, b3) over a,

    K = k > 0  ->  Sigma(2, q, 2qk-1) with orientation -1,
                   (b0; b) = (-1; 1, (q-1)/2, k)
    K = -k < 0 ->  Sigma(2, q, 2qk+1) with orientation +1,
                   (b0; b) = (1; -1, -(q-1)/2, -k)

For odd q >= 3 and K != 0 the multiplicities are pairwise coprime and
a * (b0 + sum b_i/a_i) = 1, so every such (q, K) names a homology sphere.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import InvalidSurgery


@dataclass(frozen=True)
class BrieskornSphere:
    """Sphere of 1/K surgery on the (2,q) torus knot with orientation +-1;
    a is derived from (q, K)."""

    q: int
    K: int
    orientation: int
    a: tuple[int, int, int] = field(init=False)

    def __post_init__(self):
        check_surgery(self.q, self.K)
        if self.orientation not in (1, -1):
            raise InvalidSurgery(f"orientation must be +-1, got {self.orientation}")
        sign = 1 if self.K > 0 else -1
        object.__setattr__(self, "a", (2, self.q, 2 * self.q * abs(self.K) - sign))

    @property
    def fiber_product(self) -> int:
        """a = a1*a2*a3."""
        a1, a2, a3 = self.a
        return a1 * a2 * a3


def check_surgery(q: int, K: int) -> None:
    """Raise InvalidSurgery unless q is odd and >= 3 and K is nonzero."""
    if q < 3 or q % 2 == 0:
        raise InvalidSurgery(f"q must be odd and >= 3, got {q}")
    if K == 0:
        raise InvalidSurgery("K must be nonzero")


def from_surgery(q: int, K: int) -> BrieskornSphere:
    """Sphere obtained by 1/K surgery on the (2,q) torus knot."""
    return BrieskornSphere(q, K, -1 if K > 0 else 1)


def reverse_orientation(X: BrieskornSphere) -> BrieskornSphere:
    """The same sphere with the opposite orientation."""
    return replace(X, orientation=-X.orientation)
