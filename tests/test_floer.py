import random
import time
from fractions import Fraction

import pytest

from casson3 import _kernels, floer
from casson3.assembly import lambda_su2
from casson3.dedekind import cot_sum_exact
from casson3.errors import GradingFormulaUnavailable, InapplicableMove
from casson3.flat_moduli import enumerate_connections, l3_intervals
from casson3.floer import (
    GF2Matrix,
    MorseMove,
    Z2ChainComplex,
    apply_move,
    build_floer_complex,
    dual_reflect,
    floer_correction,
    homology_ranks,
    nullspace,
    r_invariant,
    random_complex,
    random_move,
    zero_complex,
)
from casson3.seifert import from_surgery, reverse_orientation
from test_dedekind import _clear_integer_tables, _seeded_wide_cells


def _matrix(entries):
    """GF2Matrix of a nonempty list of 0/1 rows."""
    return GF2Matrix(tuple(sum(v << j for j, v in enumerate(row)) for row in entries),
                     len(entries[0]))


def _entries(M):
    return [[M.entry(i, j) for j in range(M.ncols)] for i in range(M.nrows)]


def test_gf2_matrix_basics():
    M = _matrix([[1, 0, 1], [0, 1, 1]])
    assert M.rank() == 2
    assert _entries(M.transpose()) == [[1, 0], [0, 1], [1, 1]]
    N = _matrix([[1], [1], [0]])
    assert _entries(M.mul(N)) == [[1], [1]]
    assert GF2Matrix.zero(2, 3).is_zero()
    assert _matrix([[1, 1], [1, 1]]).rank() == 1
    for rows, ncols in (((0b100,), 2), ((-1,), 3), ((0, -4), 3)):
        with pytest.raises(ValueError, match="^row has bits beyond ncols$"):
            GF2Matrix(rows, ncols)
    # a negative shape is refused by name, not by an accident of the row check
    for rows in ((), (0,)):
        with pytest.raises(ValueError, match="^ncols must be >= 0, got -1$"):
            GF2Matrix(rows, -1)
    with pytest.raises(ValueError, match="^nrows must be >= 0, got -2$"):
        GF2Matrix.zero(-2, 3)
    with pytest.raises(ValueError, match="^ncols must be >= 0, got -3$"):
        GF2Matrix.zero(2, -3)
    assert GF2Matrix.zero(0, 0) == GF2Matrix((), 0)
    # a product needs M.ncols == N.nrows, whether N has fewer rows or more
    for rows in ([[1], [0]], [[1], [0], [1], [1]]):
        with pytest.raises(ValueError, match="shape mismatch"):
            M.mul(_matrix(rows))


def test_mul_and_transpose_against_an_entry_oracle():
    # the set-bit loops of mul and transpose against entry-by-entry sums
    rng = random.Random(90210)
    shapes = [(n, m) for n in range(10) for m in range(10)]
    for _ in range(3):
        for n, m in shapes:
            k = rng.randint(0, 9)
            A = GF2Matrix(tuple(rng.getrandbits(m) for _ in range(n)), m)
            B = GF2Matrix(tuple(rng.getrandbits(k) for _ in range(m)), k)
            AT = A.transpose()
            assert (AT.nrows, AT.ncols) == (m, n)
            assert all(AT.entry(j, i) == A.entry(i, j) for i in range(n) for j in range(m))
            AB = A.mul(B)
            assert (AB.nrows, AB.ncols) == (n, k)
            for i in range(n):
                for j in range(k):
                    want = sum(A.entry(i, t) * B.entry(t, j) for t in range(m)) % 2
                    assert AB.entry(i, j) == want, (A, B, i, j)
            # (AB)^T = B^T A^T
            assert AB.transpose() == B.transpose().mul(AT)


def _count_matrices(monkeypatch):
    """A list that gains the ncols of every GF2Matrix constructed from now on."""
    built, init = [], GF2Matrix.__init__

    def counting_init(M, rows, ncols):
        built.append(ncols)
        init(M, rows, ncols)

    monkeypatch.setattr(GF2Matrix, "__init__", counting_init)
    return built


def test_gf2_values_are_slotted(monkeypatch):
    M = GF2Matrix(rows=(0b101, 0b011), ncols=3)
    cc = Z2ChainComplex(boundary=zero_complex((1, 0, 2, 0, 0, 1, 0, 0)).boundary)
    for value in (M, cc):
        assert not hasattr(value, "__dict__")
    # a matrix is a value over (rows, ncols), whether or not its rank memo is
    # filled; each field alone breaks equality
    assert M.rank() == 2
    same = GF2Matrix((0b101, 0b011), 3)
    assert same == M and hash(same) == hash(M) and same is not M
    assert GF2Matrix((0b101, 0b010), 3) != M
    assert GF2Matrix((0b101, 0b011), 4) != M
    assert M != ((0b101, 0b011), 3)
    assert repr(M) == "GF2Matrix(rows=(5, 3), ncols=3)"
    # a complex is a value over its boundary maps, each compared by value
    twin = Z2ChainComplex(tuple(GF2Matrix(N.rows, N.ncols) for N in cc.boundary))
    assert twin == cc and hash(twin) == hash(cc) and twin is not cc
    ones = Z2ChainComplex(tuple(_matrix([[1]]) if p % 2 == 0 else GF2Matrix.zero(1, 1)
                                for p in range(8)))
    for p in range(0, 8, 2):  # one map zeroed: same dims, another boundary
        other = list(ones.boundary)
        other[p] = GF2Matrix.zero(1, 1)
        assert Z2ChainComplex(tuple(other)) != ones
    assert cc != cc.boundary
    # after a move whose parent's ranks were read, only the new maps' ranks
    # are computed: a kept map reuses the rank the parent read off it
    calls = []
    echelon = floer._echelon

    def counting(rows):
        calls.append(rows)
        return echelon(rows)

    monkeypatch.setattr(floer, "_echelon", counting)
    # a move builds each new map once, and multiplies the 3 or 4 d.d products
    # a new map enters: birth and death 3 maps + 4, a slide 2 + 3
    built = _count_matrices(monkeypatch)
    rng = random.Random(44)
    kinds = set()
    for _ in range(200):
        parent = random_complex(rng, 5)
        parent.ranks
        mv = random_move(rng, parent)
        built.clear()
        child = apply_move(parent, mv)
        assert len(built) == {"isotopy": 0, "handle_slide": 5, "birth": 7, "death": 7}[mv.kind], mv
        kinds.add(mv.kind)
        calls.clear()
        assert child.ranks == tuple(len(echelon(N.rows)) for N in child.boundary)
        new = [N for N, old in zip(child.boundary, parent.boundary) if N is not old]
        assert len(calls) == len(new) == {"isotopy": 0, "handle_slide": 2,
                                          "birth": 3, "death": 3}[mv.kind], mv
        assert calls == [N.rows for N in new]
    assert kinds == {"isotopy", "handle_slide", "birth", "death"}


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


def test_nullspace_is_the_canonical_basis():
    # these facts fix the basis and its order, so a change that would alter
    # the draws of `random_complex` fails here first: each vector is in the
    # kernel, one per free column in ascending order, 1 at its own free
    # column and 0 at the others.  Column j is free if no nonzero vector of
    # the brute-force row space has its lowest set bit at j.
    rng = random.Random(4096)
    for _ in range(400):
        nrows, ncols = rng.randint(0, 9), rng.randint(0, 11)
        M = GF2Matrix(tuple(rng.getrandbits(ncols) for _ in range(nrows)), ncols)
        span = {0}
        for r in M.rows:
            span |= {v ^ r for v in span}
        pivots = {v & -v for v in span if v}
        free = [1 << j for j in range(ncols) if 1 << j not in pivots]
        free_mask = sum(free)
        basis = nullspace(M)
        assert all(bin(r & v).count("1") % 2 == 0 for r in M.rows for v in basis)
        assert [v & free_mask for v in basis] == free
        # nullspace filled the rank memo: it must be the brute-force rank
        assert M.rank() == len(pivots) == ncols - len(basis)


def test_random_complex_eliminates_each_map_once(monkeypatch):
    # nullspace fills the memo of the 7 maps it eliminates, so the first ranks
    # read eliminates only the eighth; rank() is still called once per map
    calls, rank_calls = [], []
    echelon, rank = floer._echelon, GF2Matrix.rank

    def counting(rows):
        calls.append(rows)
        return echelon(rows)

    def counting_rank(M):
        rank_calls.append(M)
        return rank(M)

    monkeypatch.setattr(floer, "_echelon", counting)
    monkeypatch.setattr(GF2Matrix, "rank", counting_rank)
    # and builds each map once from its columns: 8 maps and 8 d.d products
    built = _count_matrices(monkeypatch)
    rng = random.Random(31)
    for _ in range(100):
        calls.clear()
        rank_calls.clear()
        built.clear()
        cc = random_complex(rng, 6)
        assert len(built) == 16
        ranks = cc.ranks
        assert len(calls) == 8 and rank_calls == list(cc.boundary) and len(built) == 16
        assert ranks == tuple(len(echelon(N.rows)) for N in cc.boundary)


def test_nullspace():
    M = _matrix([[1, 1, 0], [0, 0, 1]])
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
    bnd[3] = _matrix([[1]])
    cc = Z2ChainComplex(tuple(bnd))
    assert floer_correction(cc) == 1  # (-1)^2 * rank 1


def test_correction_alternating_sum():
    # ranks into degrees: r0 = 1, r2 = 2 -> correction 1 + 2 = 3
    dims = [1, 1, 2, 2, 0, 0, 0, 0]
    bnd = [GF2Matrix.zero(dims[(p - 1) % 8], dims[p]) for p in range(8)]
    bnd[1] = _matrix([[1]])
    bnd[3] = _matrix([[1, 0], [0, 1]])
    cc = Z2ChainComplex(tuple(bnd))
    assert floer_correction(cc) == 3


def test_d_squared_validation():
    dims = (1, 1, 1, 0, 0, 0, 0, 0)
    bnd = [GF2Matrix.zero(dims[(p - 1) % 8], dims[p]) for p in range(8)]
    bnd[1] = _matrix([[1]])
    bnd[2] = _matrix([[1]])
    with pytest.raises(ValueError):
        Z2ChainComplex(tuple(bnd))


def test_touched_check_refuses_a_bad_map():
    # d = 1 out of every even degree, 0 out of every odd one: d.d = 0
    good = Z2ChainComplex(tuple(_matrix([[1]]) if p % 2 == 0 else GF2Matrix.zero(1, 1)
                                for p in range(8)))
    for u in range(1, 8, 2):
        bad = list(good.boundary)
        bad[u] = _matrix([[1]])  # now boundary[u-1] boundary[u] != 0
        with pytest.raises(ValueError) as full:
            Z2ChainComplex(tuple(bad))
        with pytest.raises(ValueError, match=f"d. d != 0 at degree {u}$") as part:
            Z2ChainComplex(tuple(bad), parent=good)
        assert str(part.value) == str(full.value)
        bad[u] = GF2Matrix.zero(2, 1)  # rows must match dims[u-1] = 1
        for parent in (None, good):
            with pytest.raises(ValueError, match=f"boundary\\[{u}\\] has 2 rows"):
                Z2ChainComplex(tuple(bad), parent=parent)
        # two columns make dims[u] = 2, which the next map's one row no longer matches
        bad[u] = GF2Matrix.zero(1, 2)
        for parent in (None, good):
            with pytest.raises(ValueError, match=f"boundary\\[{(u + 1) % 8}\\] has 1 rows, want 2"):
                Z2ChainComplex(tuple(bad), parent=parent)


def test_parent_check_agrees_with_the_full_check():
    # replacing 1-3 maps of a checked complex by random GF(2) matrices: the
    # check against the parent refuses exactly what the full check refuses
    rng = random.Random(31337)
    outcomes = set()
    for _ in range(2000):
        parent = random_complex(rng, 4)
        bnd = list(parent.boundary)
        for p in rng.sample(range(8), rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0:  # random shape
                nrows, ncols = rng.randint(0, 4), rng.randint(0, 4)
            else:  # the parent's shape, zero or random
                nrows, ncols = bnd[p].nrows, bnd[p].ncols
            bits = 0 if kind == 1 else ncols
            bnd[p] = GF2Matrix(tuple(rng.getrandbits(bits) for _ in range(nrows)), ncols)
        results = []
        for parent_arg in (None, parent):
            try:
                results.append(Z2ChainComplex(tuple(bnd), parent_arg))
            except ValueError as err:
                results.append(str(err))
        assert results[0] == results[1], (parent, bnd)
        outcomes.add(type(results[0]).__name__)
    assert outcomes == {"Z2ChainComplex", "str"}


def test_parent_must_be_a_complex():
    cc = zero_complex((1, 0, 2, 0, 0, 1, 0, 0))
    assert Z2ChainComplex(cc.boundary, cc) == cc
    for parent in (cc.boundary, [], 0):
        with pytest.raises(TypeError, match="parent must be a Z2ChainComplex"):
            Z2ChainComplex(cc.boundary, parent)


def test_dims_are_read_off_the_maps():
    dims = (1, 2, 0, 3, 1, 0, 0, 2)
    bnd = [GF2Matrix.zero(dims[p - 1], dims[p]) for p in range(8)]
    assert Z2ChainComplex(tuple(bnd)).dims == dims
    # boundary[4] must have dims[3] = 3 rows
    bnd[4] = GF2Matrix.zero(2, dims[4])
    with pytest.raises(ValueError):
        Z2ChainComplex(tuple(bnd))
    with pytest.raises(ValueError):
        Z2ChainComplex(tuple(bnd[:7]))


def test_birth_changes_correction_by_sign():
    cc = zero_complex((0,) * 8)
    for p in range(8):
        after = apply_move(cc, MorseMove("birth", p=p))
        assert floer_correction(after) - floer_correction(cc) == (-1) ** p
        assert after.dims[p] == 1 and after.dims[(p + 1) % 8] == 1


def test_death_inverts_birth():
    cc = zero_complex((1, 2, 0, 0, 1, 0, 0, 0))
    born = apply_move(cc, MorseMove("birth", p=3))
    # the new pair: row 0 of C_3 (which was empty), column 1 of C_4
    dead = apply_move(born, MorseMove("death", p=3, pair=(0, 1)))
    assert dead == cc
    assert floer_correction(dead) == floer_correction(cc)
    for mv in (MorseMove("death", p=3, pair=(0, 1)), MorseMove("death", p=3)):
        with pytest.raises(InapplicableMove):
            apply_move(cc, mv)
    # a death names its pair: there is no search for one
    for pair in (None, (0, 0), (1, 1)):
        with pytest.raises(InapplicableMove):
            apply_move(born, MorseMove("death", p=3, pair=pair))


def test_handle_slide_preserves_correction():
    cc = apply_move(zero_complex((0,) * 8), MorseMove("birth", p=1))
    cc = apply_move(cc, MorseMove("birth", p=1))  # two generators in 1 and 2
    before = floer_correction(cc)
    slid = apply_move(cc, MorseMove("handle_slide", p=2, pair=(0, 1)))
    assert floer_correction(slid) == before
    assert homology_ranks(slid) == homology_ranks(cc)
    # elementary over GF(2) is an involution
    assert apply_move(slid, MorseMove("handle_slide", p=2, pair=(0, 1))) == cc
    # a slide needs two distinct generators of the degree
    for pair in (None, (0, 0), (1, 1), (0, 2), (-1, 0)):
        with pytest.raises(InapplicableMove, match="cannot slide generator"):
            apply_move(cc, MorseMove("handle_slide", p=2, pair=pair))


def test_isotopy_is_identity():
    cc = random_complex(random.Random(5), 4)
    assert apply_move(cc, MorseMove("isotopy")) == cc
    # the four kinds above are the only moves
    with pytest.raises(ValueError, match="unknown move kind 'isotropy'"):
        MorseMove("isotropy")


def test_move_fuzz():
    t0 = time.perf_counter()
    rng = random.Random(987654321)
    for _ in range(10_000):
        cc = random_complex(rng, 6)
        start_h = homology_ranks(cc)
        corr = floer_correction(cc)
        for _ in range(rng.randint(3, 6)):
            mv = random_move(rng, cc)
            cc = apply_move(cc, mv)  # re-checks d.d = 0 on the products the move touched
            assert Z2ChainComplex(cc.boundary) == cc  # the full check passes too
            # fresh copies carry no rank memo, so their ranks are computed anew
            assert cc.ranks == tuple(GF2Matrix(M.rows, M.ncols).rank() for M in cc.boundary)
            new_corr = floer_correction(cc)
            if mv.kind in ("isotopy", "handle_slide"):
                assert new_corr == corr, mv
            elif mv.kind == "birth":
                assert new_corr - corr == (-1) ** mv.p, mv
            else:
                assert new_corr - corr == -((-1) ** mv.p), mv
            corr = new_corr
            assert homology_ranks(cc) == start_h, mv
    assert time.perf_counter() - t0 < 60.0


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
    assert sorted(r_invariant((2, 3, 5), e) % 8 for e in es) == [1, 5]


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


def test_grading_refuses_a_non_integer():
    # an integer kernel off by one leaves 2 a^2 mu off by sum_i (a/a_i)^2,
    # which 2 a^2 cannot divide
    X = from_surgery(7, -2)
    try:
        for *_, table in _kernels.fiber_plan(X.a)[0]:
            for r in range(len(table)):
                table[r] += 1
        for c in enumerate_connections(X):
            with pytest.raises(GradingFormulaUnavailable):
                r_invariant(X.a, c.e)
    finally:
        _clear_integer_tables()


def _grading_cells(seed):
    """Every q <= 9, |K| <= 2 cell, a seeded sample of the odd q <= 25,
    |K| <= 6 grid and seeded cells with q <= 61, |K| <= 8."""
    rng = random.Random(seed)
    small = [(q, K) for q in (3, 5, 7, 9) for K in (1, 2, -1, -2)]
    grid = [(q, K) for q in range(11, 26, 2) for K in range(-6, 7) if K]
    wide = [(rng.randrange(27, 62, 2), rng.choice((1, -1)) * rng.randint(1, 8))
            for _ in range(6)]
    return small + rng.sample(grid, 24) + wide


_GRADING_CELLS = _grading_cells(26)


def test_the_complex_reads_the_plan_once():
    def reads():
        info = _kernels.fiber_plan.cache_info()
        return info.hits + info.misses

    for X in (from_surgery(9, 70), reverse_orientation(from_surgery(7, -3))):
        enumerate_connections(X)
        before = reads()
        build_floer_complex(X)
        assert reads() - before == 1, X


def test_grading_parity_by_surgery_sign():
    # the even degrees are empty for K > 0, the odd ones for K < 0
    for q, K in _GRADING_CELLS:
        dims = build_floer_complex(from_surgery(q, K)).dims
        assert not any(dims[0::2] if K > 0 else dims[1::2]), (q, K, dims)


def _milnor_signature(q, a3):
    """Signature of the Milnor fibre of x^2 + y^q + z^a3 by Brieskorn's count,
    #{s < 1} + #{s > 2} - #{1 < s < 2} over s = 1/2 + j2/q + j3/a3 with
    0 < j2 < q and 0 < j3 < a3.  Times 2 q a3, s < 1 reads
    2 q j3 < q a3 - 2 a3 j2 and s > 2 reads 2 q j3 > 3 q a3 - 2 a3 j2, so each
    j2 takes two floor divisions; a3 is odd and prime to q, so s is never 1 or 2."""
    sigma = 0
    for j2 in range(1, q):
        below = max(0, (q * a3 - 2 * a3 * j2 - 1) // (2 * q))
        above = max(0, a3 - 1 - (3 * q * a3 - 2 * a3 * j2) // (2 * q))
        sigma += 2 * (below + above) - (a3 - 1)
    return sigma


def _closed_form_dims(X):
    """build_floer_complex(X).dims in closed form.  With h = (q^2 - 1)|K|/8,
    delta = floor((q + 1)/4) for odd K and 0 for even K, x = (h + delta)/2 and
    y = (h - delta)/2, the surgery orientation has (0, x, 0, y, 0, x, 0, y) for
    K > 0 and (y, 0, x, 0, y, 0, x, 0) for K < 0; the reversed orientation has
    dims[(-p - 3) mod 8] in degree p."""
    q, K = X.q, X.K
    h = (q * q - 1) * abs(K) // 8
    delta = (q + 1) // 4 if K % 2 else 0
    x, y = (h + delta) // 2, (h - delta) // 2
    dims = (0, x, 0, y) * 2 if K > 0 else (y, 0, x, 0) * 2
    if X.orientation != from_surgery(q, K).orientation:
        dims = tuple(dims[(-p - 3) % 8] for p in range(8))
    return dims


def test_milnor_signature_is_four_times_casson():
    # Fintushel-Stern (1985), lambda = sigma/8, in this normalisation, which
    # counts 2 lambda; it shares no code with count_connections
    assert _milnor_signature(3, 5) == -8  # the E8 fibre of Sigma(2, 3, 5)
    for q in range(3, 202, 2):
        for K in range(-30, 31):
            if K:
                X = from_surgery(q, K)
                assert X.orientation * _milnor_signature(q, X.a[2]) == 4 * lambda_su2(q, K), \
                    (q, K)


def test_graded_dims_repeat_with_period_four_and_sum_to_casson():
    # laws of the degree histogram: dims[p] = dims[p + 4] (observed, not
    # proved), the Euler characteristic chi = 2 lambda (Taubes 1990), which in
    # this normalisation reads 4 chi = -orientation * sigma with sigma the
    # Milnor-fibre signature, and the closed form of `_closed_form_dims`
    for q, K in _GRADING_CELLS:
        X = from_surgery(q, K)
        sigma = _milnor_signature(q, X.a[2])
        for Y in (X, reverse_orientation(X)):
            dims = build_floer_complex(Y).dims
            assert all(dims[p] == dims[p + 4] for p in range(4)), (q, K, Y.orientation, dims)
            euler = sum((-1) ** p * d for p, d in enumerate(dims))
            assert 4 * euler == -Y.orientation * sigma, (q, K, Y.orientation, dims)
            assert dims == _closed_form_dims(Y), (q, K, Y.orientation, dims)


def _per_fiber_dims(X):
    """build_floer_complex(X).dims from per-fiber sums, sharing with the
    computation `_kernels.fiber_plan` and the L3 walk `flat_moduli.l3_intervals`,
    which oracles that share none of its code check (test_flat_moduli's
    brute-force scan, interval sizes and interlacing count).  With c_i = a/a_i and
    e = c1 + c2 L2 + c3 L3, the numerator 4 a e^2 - N of 2 a^2 mu splits as
    C0 + U(L2) + V(L3) + 16 a^2 L2 L3, since c2 c3 = 2a.  V(L3) mod 2 a^2 is
    the same on every L3 of its parity (the separation law, asserted here), so
    mu = (C0 + U(L2) + V(first))/(2 a^2) + v(L3) (mod 8), with
    v(L3) = (V(L3) - V(first))/(2 a^2), and per-class counts of v over L3
    below each interval end give the histogram in O(q + a3)."""
    plan, a, square = _kernels.fiber_plan(X.a)
    (A1, _, s1, _, M1), (A2, q, s2, _, M2), (A3, a3, s3, _, M3) = plan
    c1, c2, c3 = a // 2, a // q, a // a3
    unit, first = 2 * square, 2 - abs(X.K) % 2

    def V(L3):
        return 4 * a * (s3 * L3 * L3 + 2 * c1 * c3 * L3) - M3[A3 * L3 % a3] * s3

    v_first = V(first)
    intervals = list(l3_intervals(X))
    ends = {L3 for _, lo, hi in intervals for L3 in (lo, hi + 2)}
    below, counts = {}, [0] * 8  # below[L3][r]: how many L3' < L3 have v = r (mod 8)
    for L3 in range(first, a3 + 2, 2):
        if L3 in ends:
            below[L3] = counts.copy()
        if L3 < a3:
            v, rest = divmod(V(L3) - v_first, unit)
            assert rest == 0, (X, L3)
            counts[v % 8] += 1
    dims = [0] * 8
    for L2, lo, hi in intervals:
        U = 4 * a * (s2 * L2 * L2 + 2 * c1 * c2 * L2) - M2[A2 * L2 % q] * s2
        base, rest = divmod(4 * a * s1 - M1[A1] * s1 + U + v_first, unit)
        assert rest == 0, (X, L2)  # mu is an integer
        for r in range(8):
            mu = base + r
            degree = (mu + 3) % 8 if X.orientation == 1 else (-mu - 6) % 8
            dims[degree] += below[hi + 2][r] - below[lo][r]
    return tuple(dims)


def test_per_fiber_dims_match_the_computation():
    for q, K in _GRADING_CELLS:
        X = from_surgery(q, K)
        for Y in (X, reverse_orientation(X)):
            assert _per_fiber_dims(Y) == build_floer_complex(Y).dims, (q, K, Y.orientation)


def _assert_per_fiber_dims_are_the_closed_form(cells):
    try:
        for q, K in cells:
            X = from_surgery(q, K)
            for Y in (X, reverse_orientation(X)):
                assert _per_fiber_dims(Y) == _closed_form_dims(Y), (q, K, Y.orientation)
    finally:
        _clear_integer_tables()


def test_per_fiber_dims_are_the_closed_form_far_past_the_budget():
    # (401, +-300) has 12.06 M connections
    t0 = time.perf_counter()
    _assert_per_fiber_dims_are_the_closed_form([(401, 300), (401, -300),
                                                *_seeded_wide_cells(4, 16, 2 ** 18 - 1)])
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.slow
def test_per_fiber_dims_are_the_closed_form_on_wide_cells():
    _assert_per_fiber_dims_are_the_closed_form(_seeded_wide_cells(30, 160))


@pytest.mark.slow
def test_graded_dims_closed_form_sweep():
    for q in range(3, 62, 2):
        for K in range(-12, 13):
            if K:
                X = from_surgery(q, K)
                for Y in (X, reverse_orientation(X)):
                    assert build_floer_complex(Y).dims == _closed_form_dims(Y), \
                        (q, K, Y.orientation)


def test_reversed_host_gradings_follow_duality():
    # reversing the host's orientation is dual_reflect on the whole complex
    for q in range(3, 14, 2):
        for K in [k for k in range(-6, 7) if k]:
            X = from_surgery(q, K)
            assert build_floer_complex(reverse_orientation(X)) == \
                dual_reflect(build_floer_complex(X)), (q, K)


def test_build_floer_complex():
    # (q, K, generators): all in odd degrees for K > 0, all in even ones for K < 0
    for q, K, n in [(3, 1, 2), (5, -2, 12), (9, 3, 60)]:
        cc = build_floer_complex(from_surgery(q, K))
        assert sum(cc.dims) == n, (q, K)
        assert not any(cc.dims[0::2] if K > 0 else cc.dims[1::2]), (q, K, cc.dims)
        assert floer_correction(cc) == 0


def test_grading_all_twenty_q9():
    cc = build_floer_complex(from_surgery(9, 1))
    assert sum(cc.dims) == 20
    assert not any(cc.dims[0::2]), cc.dims


def test_mixed_parity_gradings_are_refused(monkeypatch):
    # the zero boundary maps rest on the degrees sharing one parity
    X = from_surgery(3, 2)
    mu = {c.e: c.t_index for c in enumerate_connections(X)}
    assert sorted(mu.values()) == [1, 2, 3, 4]
    monkeypatch.setattr(floer, "_mu", lambda plan, e: mu[e])
    with pytest.raises(GradingFormulaUnavailable):
        build_floer_complex(X)


def test_random_complex_valid_and_varied():
    rng = random.Random(2)
    nonzero_maps = 0
    for _ in range(40):
        cc = random_complex(rng, 5)  # constructor validates d.d = 0
        nonzero_maps += sum(0 if M.is_zero() else 1 for M in cc.boundary)
    assert nonzero_maps > 0
