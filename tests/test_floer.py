import random
from fractions import Fraction

import pytest

from casson3 import dedekind
from casson3.dedekind import cot_sum_exact
from casson3.errors import GradingFormulaUnavailable, InapplicableMove
from casson3.flat_moduli import enumerate_connections
from casson3.floer import (
    GF2Matrix,
    MorseMove,
    Z2ChainComplex,
    apply_move,
    build_floer_complex,
    dual_reflect,
    floer_correction,
    floer_grading,
    homology_ranks,
    instanton_grading_natural,
    nullspace,
    r_invariant,
    random_complex,
    random_move,
    zero_complex,
)
from casson3.seifert import from_surgery, reverse_orientation


def test_gf2_matrix_basics():
    M = GF2Matrix.from_lists([[1, 0, 1], [0, 1, 1]])
    assert M.rank() == 2
    assert M.transpose().to_lists() == [[1, 0], [0, 1], [1, 1]]
    N = GF2Matrix.from_lists([[1], [1], [0]])
    assert M.mul(N).to_lists() == [[1], [1]]
    assert GF2Matrix.zero(2, 3).is_zero()
    assert GF2Matrix.from_lists([[1, 1], [1, 1]]).rank() == 1


def test_rank_against_row_space_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 8), rng.randint(0, 10)
        M = GF2Matrix(tuple(rng.getrandbits(ncols) for _ in range(nrows)), ncols)
        rank = M.rank()
        span = {0}
        for r in M.rows:
            span |= {v ^ r for v in span}
        assert len(span) == 2 ** rank
        assert M.transpose().rank() == rank
        basis = nullspace(M)
        assert rank + len(basis) == ncols
        assert all(bin(r & v).count("1") % 2 == 0 for r in M.rows for v in basis)


def test_nullspace():
    M = GF2Matrix.from_lists([[1, 1, 0], [0, 0, 1]])
    basis = nullspace(M)
    assert len(basis) == 1
    for v in basis:
        # Mv = 0
        for row in M.rows:
            assert bin(row & v).count("1") % 2 == 0


def test_correction_zero_boundary():
    assert floer_correction(zero_complex((1, 2, 0, 3, 1, 0, 0, 2))) == 0


def test_correction_single_map():
    dims = [0] * 8
    dims[2] = dims[3] = 1
    bnd = [GF2Matrix.zero(dims[(p - 1) % 8], dims[p]) for p in range(8)]
    bnd[3] = GF2Matrix.from_lists([[1]])
    cc = Z2ChainComplex(tuple(dims), tuple(bnd))
    assert floer_correction(cc) == 1  # (-1)^2 * rank 1


def test_correction_alternating_sum():
    # ranks into degrees: r0 = 1, r2 = 2 -> correction 1 + 2 = 3
    dims = [1, 1, 2, 2, 0, 0, 0, 0]
    bnd = [GF2Matrix.zero(dims[(p - 1) % 8], dims[p]) for p in range(8)]
    bnd[1] = GF2Matrix.from_lists([[1]])
    bnd[3] = GF2Matrix.from_lists([[1, 0], [0, 1]])
    cc = Z2ChainComplex(tuple(dims), tuple(bnd))
    assert floer_correction(cc) == 3


def test_d_squared_validation():
    dims = (1, 1, 1, 0, 0, 0, 0, 0)
    bnd = [GF2Matrix.zero(dims[(p - 1) % 8], dims[p]) for p in range(8)]
    bnd[1] = GF2Matrix.from_lists([[1]])
    bnd[2] = GF2Matrix.from_lists([[1]])
    with pytest.raises(ValueError):
        Z2ChainComplex(dims, tuple(bnd))


def test_birth_changes_correction_by_sign():
    cc = zero_complex((0,) * 8)
    for p in range(8):
        after = apply_move(cc, MorseMove("birth", p=p))
        assert floer_correction(after) - floer_correction(cc) == (-1) ** p
        assert after.dims[p] == 1 and after.dims[(p + 1) % 8] == 1


def test_death_inverts_birth():
    cc = zero_complex((1, 2, 0, 0, 1, 0, 0, 0))
    born = apply_move(cc, MorseMove("birth", p=3))
    dead = apply_move(born, MorseMove("death", p=3))
    assert dead.dims == cc.dims
    assert floer_correction(dead) == floer_correction(cc)
    with pytest.raises(InapplicableMove):
        apply_move(cc, MorseMove("death", p=3))


def test_handle_slide_preserves_correction():
    cc = apply_move(zero_complex((0,) * 8), MorseMove("birth", p=1))
    cc = apply_move(cc, MorseMove("birth", p=1))  # two generators in 1 and 2
    before = floer_correction(cc)
    slid = apply_move(cc, MorseMove("handle_slide", p=2, source=0, target=1))
    assert floer_correction(slid) == before
    assert homology_ranks(slid) == homology_ranks(cc)
    # elementary over GF(2) is an involution
    assert apply_move(slid, MorseMove("handle_slide", p=2, source=0, target=1)) == cc


def test_isotopy_is_identity():
    cc = random_complex(random.Random(5), 4)
    assert apply_move(cc, MorseMove("isotopy")) == cc


def test_move_fuzz_small():
    rng = random.Random(12345)
    for _ in range(300):
        cc = random_complex(rng, 4)
        start_h = homology_ranks(cc)
        corr = floer_correction(cc)
        for _ in range(6):
            mv = random_move(rng, cc)
            cc = apply_move(cc, mv)  # constructor re-checks d.d = 0
            new_corr = floer_correction(cc)
            if mv.kind in ("isotopy", "handle_slide"):
                assert new_corr == corr
            elif mv.kind == "birth":
                assert new_corr - corr == (-1) ** mv.p
            else:
                assert new_corr - corr == -((-1) ** mv.p)
            corr = new_corr
            assert homology_ranks(cc) == start_h


def test_dual_reflect_preserves_correction():
    rng = random.Random(777)
    for _ in range(50):
        cc = random_complex(rng, 5)
        dual = dual_reflect(cc)
        assert floer_correction(dual) == floer_correction(cc)
        assert dual.dims == tuple(cc.dims[(-3 - p) % 8] for p in range(8))
        assert dual_reflect(dual) == cc
        hr, dhr = homology_ranks(cc), homology_ranks(dual)
        assert dhr == tuple(hr[(-3 - p) % 8] for p in range(8))


def test_gradings_sigma_2_3_5():
    # brute-force values of the grading formula on the two connections
    X = from_surgery(3, 1)
    es = [c.e for c in enumerate_connections(X)]
    assert sorted(instanton_grading_natural((2, 3, 5), e) for e in es) == [1, 5]


def _r_invariant_fractions(a, e):
    # the grading formula straight off its definition, in Fractions
    prod = a[0] * a[1] * a[2]
    total = Fraction(2 * e * e, prod)
    for ai in a:
        total += Fraction(2, ai) * cot_sum_exact((prod // ai) % ai, e % ai, ai)
    return total


def test_integer_grading_matches_the_fraction_formula():
    for q in (3, 5, 7, 9, 21):
        for K in (1, 2, 5, -1, -3):
            X = from_surgery(q, K)
            for c in enumerate_connections(X):
                assert r_invariant(X.a, c.e) == _r_invariant_fractions(X.a, c.e), (q, K, c.L)


def test_grading_refuses_a_non_integer(monkeypatch):
    # an integer kernel off by one leaves 2 a^2 mu off by sum_i (a/a_i)^2,
    # which 2 a^2 cannot divide
    true_numerator = dedekind.cot_sum_numerator
    monkeypatch.setattr(dedekind, "cot_sum_numerator",
                        lambda A, e, n: true_numerator(A, e, n) + 1)
    X = from_surgery(7, -2)
    for c in enumerate_connections(X):
        with pytest.raises(GradingFormulaUnavailable):
            r_invariant(X.a, c.e)


def test_grading_parity_by_surgery_sign():
    for q in (3, 5, 7, 9):
        for K in (1, 2, -1, -2):
            X = from_surgery(q, K)
            for c in enumerate_connections(X):
                g = floer_grading(c)
                assert g % 2 == (1 if K > 0 else 0), (q, K, c.L, g)


def test_grading_all_twenty_q9():
    X = from_surgery(9, 1)
    gradings = [floer_grading(c) for c in enumerate_connections(X)]
    assert len(gradings) == 20
    assert all(g % 2 == 1 for g in gradings)


def test_reversed_host_gradings_follow_duality():
    X = from_surgery(3, 1)
    Y = reverse_orientation(X)
    for cx, cy in zip(enumerate_connections(X), enumerate_connections(Y)):
        assert floer_grading(cy) == (-3 - floer_grading(cx)) % 8


def test_build_floer_complex():
    cc = build_floer_complex(from_surgery(3, 1))
    assert sum(cc.dims) == 2
    assert all(d == 0 for p, d in enumerate(cc.dims) if p % 2 == 0)
    assert floer_correction(cc) == 0

    cc = build_floer_complex(from_surgery(5, -2))
    assert sum(cc.dims) == 12
    assert all(d == 0 for p, d in enumerate(cc.dims) if p % 2 == 1)
    assert floer_correction(cc) == 0

    cc = build_floer_complex(from_surgery(9, 3))
    assert sum(cc.dims) == 60
    assert all(d == 0 for p, d in enumerate(cc.dims) if p % 2 == 0)
    assert floer_correction(cc) == 0


def test_random_complex_valid_and_varied():
    rng = random.Random(2)
    nonzero_maps = 0
    for _ in range(40):
        cc = random_complex(rng, 5)  # constructor validates d.d = 0
        nonzero_maps += sum(0 if M.is_zero() else 1 for M in cc.boundary)
    assert nonzero_maps > 0
