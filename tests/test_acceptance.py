"""Acceptance suite: each test covers one numbered criterion and prints a
PASS line (visible with -s or -rA) once its assertions hold.

Run:  pytest tests/test_acceptance.py -v -s
"""
import random
import time
from fractions import Fraction

import pytest

from casson3.assembly import (
    assemble,
    assemble_on_sphere,
    reference_C,
    reference_Lambda,
)
from casson3.dedekind import c_correction, rho_adjoint
from casson3.errors import DegreeExceeded
from casson3.flat_moduli import count_connections, enumerate_connections
from casson3.floer import (
    apply_move,
    floer_correction,
    homology_ranks,
    random_complex,
    random_move,
)
from casson3.knotpoly import check_conjecture
from casson3.polynomial import RationalPoly, fit_and_verify
from casson3.seifert import from_surgery, reverse_orientation

from tabledata import expected_rows

GRID_Q = (3, 5, 7, 9)
GRID_K = tuple(k for k in range(-6, 7) if k != 0)


@pytest.fixture(scope="module")
def grid():
    """Reports for the whole grid via the default float path, plus wall time."""
    t0 = time.perf_counter()
    reports = {(q, K): assemble(q, K, path="float") for q in GRID_Q for K in GRID_K}
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_1_lambda_table(grid):
    reports, elapsed = grid
    for (q, K), r in reports.items():
        assert r.Lambda_su3 == reference_Lambda(q, K), (q, K)
    assert reports[(3, 1)].Lambda_su3 == Fraction(1, 4)
    assert reports[(3, -1)].Lambda_su3 == Fraction(21, 4)
    assert reports[(5, 1)].Lambda_su3 == Fraction(47, 4)
    assert elapsed < 5.0, f"grid took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: Lambda matches closed forms on "
          f"{len(reports)} cells exactly ({elapsed:.2f}s)")


def test_criterion_2_c_column(grid):
    reports, elapsed = grid
    t0 = time.perf_counter()
    worst_rel = 0.0
    for (q, K), r in reports.items():
        assert r.C == reference_C(q, K), (q, K)  # computed, zero tolerance
        # float-path aggregate (pre-snap doubles) against the exact value
        X = from_surgery(q, K)
        agg = -X.orientation / 8.0 * sum(
            rho_adjoint(c, path="exact").float_check.value
            for c in enumerate_connections(X)
        )
        rel = abs(agg - float(r.C)) / max(1.0, abs(float(r.C)))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-8, (q, K, rel)
    t = elapsed + time.perf_counter() - t0
    assert t < 30.0, f"C grid took {t:.2f}s"
    print(f"\nACCEPTANCE 2 PASS: C column reproduced exactly on {len(reports)} "
          f"cells; float-vs-exact worst relative {worst_rel:.2e} ({t:.2f}s)")


def test_criterion_3_rotation_number_tables():
    cells = 0
    for q in GRID_Q:
        for k in range(1, 6):
            for positive in (True, False):
                X = from_surgery(q, k if positive else -k)
                conns = enumerate_connections(X)
                got = [(c.L[1], c.L[2], c.t_index, c.e) for c in conns]
                assert got == expected_rows(q, k, positive), (q, k, positive)
                assert len(conns) == count_connections(q, k)
                cells += 1
    print(f"\nACCEPTANCE 3 PASS: enumeration tables reproduced on {cells} branches")


def test_criterion_4_integrality(grid):
    reports, _ = grid
    for (q, K), r in reports.items():
        assert (4 * r.Lambda_su3).denominator == 1, (q, K)
    print(f"\nACCEPTANCE 4 PASS: 4*Lambda integral on {len(reports)} cells")


def test_criterion_5_orientation_symmetry():
    rng = random.Random(20240517)
    cells = set()
    while len(cells) < 20:
        cells.add((rng.choice(GRID_Q), rng.choice(GRID_K)))
    for q, K in sorted(cells):
        X = from_surgery(q, K)
        a = assemble_on_sphere(X)
        b = assemble_on_sphere(reverse_orientation(X))
        assert a.Lambda_su3 == b.Lambda_su3, (q, K)
    print("\nACCEPTANCE 5 PASS: orientation symmetry on 20 random cells")


def test_criterion_6_move_calculus():
    t0 = time.perf_counter()
    rng = random.Random(987654321)
    sequences = 10_000
    moves_applied = 0
    for _ in range(sequences):
        cc = random_complex(rng, 6)
        start_h = homology_ranks(cc)
        corr = floer_correction(cc)
        for _ in range(rng.randint(3, 6)):
            mv = random_move(rng, cc)
            cc = apply_move(cc, mv)  # constructor enforces d.d = 0
            new_corr = floer_correction(cc)
            if mv.kind in ("isotopy", "handle_slide"):
                assert new_corr == corr, mv
            elif mv.kind == "birth":
                assert new_corr - corr == (-1) ** mv.p, mv
            else:
                assert new_corr - corr == -((-1) ** mv.p), mv
            assert homology_ranks(cc) == start_h, mv
            corr = new_corr
            moves_applied += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"fuzz took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 6 PASS: {sequences} fuzzed sequences, {moves_applied} "
          f"moves, correction jumps exact, homology stable ({elapsed:.2f}s)")


def test_criterion_7_polynomial_structure(grid):
    reports, _ = grid
    for q in GRID_Q:
        plus = {K: reports[(q, K)].Lambda_su3 for K in GRID_K if K > 0}
        minus = {K: reports[(q, K)].Lambda_su3 for K in GRID_K if K < 0}
        fit_plus = fit_and_verify(plus, 2)
        fit_minus = fit_and_verify(minus, 2)
        with pytest.raises(DegreeExceeded):
            fit_and_verify(plus, 1)
        with pytest.raises(DegreeExceeded):
            fit_and_verify(minus, 1)
        assert fit_plus != fit_minus
        n_q = (q * q - 1) // 4
        assert fit_plus - fit_minus == RationalPoly((0, Fraction(n_q, 4)))
    print("\nACCEPTANCE 7 PASS: quadratic on each branch, degree-1 fails, "
          "branch difference is (1/4)((q^2-1)/4)K")


def test_criterion_8_conjecture_report(grid):
    reports, _ = grid
    for q in GRID_Q:
        plus = {K: reports[(q, K)].Lambda_su3 for K in GRID_K if K > 0}
        minus = {K: reports[(q, K)].Lambda_su3 for K in GRID_K if K < 0}
        rep = check_conjecture(
            q,
            fit_and_verify(plus, 2),
            fit_and_verify(minus, 2),
        )
        assert rep["N"] == (q * q - 1) // 4
        assert rep["rep_count_matches_N"]
        assert rep["abs_second_derivative_matches_N"]
        assert rep["difference_equals_quarter_N_K"]
        assert not rep["stated_form_holds"]  # the factor discrepancy is flagged
        assert rep["stated_vs_actual_factor"] is not None
    print("\nACCEPTANCE 8 PASS: N(q) matches counts and |second derivative|; "
          "stated-form factor discrepancy flagged")

