"""Exact values from floats: `snap_rho` rounding onto the (1/D)Z lattice,
D = 4*a1*a2*a3, and returning the numerator over D."""
import math
import random
from fractions import Fraction

import pytest

from casson3.dedekind import MAX_SNAP_ERROR, FloatEstimate, snap_rho
from casson3.errors import ConventionMismatch, SnapFailure
from casson3.seifert import from_surgery


def test_snap_exact_representable():
    D = 4 * from_surgery(3, 1).fiber_product  # Sigma(2,3,5)
    assert D == 120
    assert snap_rho(FloatEstimate(0.25, 1e-12), D) == Fraction(1, 4) * 120
    assert snap_rho(FloatEstimate(-17 / 12, 1e-12), D) == Fraction(-17, 12) * 120


def test_snap_no_candidate():
    # 1/3 = 40/120 is on the lattice, but 3.3e-8 away: outside the window
    with pytest.raises(SnapFailure):
        snap_rho(FloatEstimate(0.3333333, 1e-10), 4 * from_surgery(3, 1).fiber_product)
    D = 4 * from_surgery(5, -2).fiber_product
    for offset in (Fraction(1, 2), Fraction(3, 10), Fraction(-1, 7)):
        x = float((7 * D + 5 + offset) / D)
        with pytest.raises(SnapFailure):
            snap_rho(FloatEstimate(x, 1e-13), D)


def test_snap_rejects_bad_bound_and_nonfinite():
    with pytest.raises(SnapFailure):
        snap_rho(FloatEstimate(0.5, 2 * MAX_SNAP_ERROR), 4 * from_surgery(5, -2).fiber_product)
    # a non-finite value or a bound that is not finite and >= 0 never reaches
    # snap_rho: the estimate itself refuses it
    for x, err in ((math.nan, 1e-13), (math.inf, 1e-13), (-math.inf, 1e-13),
                   (0.5, -1e-13), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ConventionMismatch):
            FloatEstimate(x, err)


def test_snap_roundtrip_random():
    # seeded random lattice points k/D snap back exactly from their float image
    rng = random.Random(20240211)
    for q, K in [(3, 1), (5, -2), (9, 6), (9, -80)]:
        D = 4 * from_surgery(q, K).fiber_product
        for _ in range(200):
            r = Fraction(rng.randint(-40 * D, 40 * D), D)
            assert snap_rho(FloatEstimate(float(r), 1e-13), D) == r * D
