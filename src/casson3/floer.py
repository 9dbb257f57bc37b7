"""Z/8-graded chain complexes over GF(2), parametrized-Morse moves, and the
instanton gradings of the surgery family.

The correction term of a complex is sum_p (-1)^p rank(d: C_{p+1} -> C_p); it
is invariant under isotopy and handle slides, jumps by +(-1)^p at a birth in
degrees (p, p+1), and by -(-1)^p at the matching death.

Each matrix memoises its rank on its first `rank()` or `nullspace` call, and
a complex reads the ranks of its 8 boundary maps off those memos once
(`Z2ChainComplex.ranks`); the correction term and the homology ranks both
read them.  Both classes are slotted dataclasses, not frozen: nothing assigns
to either after construction, which the memos rely on.  Each new map is
built, and validated by `GF2Matrix`, once: `random_complex` builds it from
its drawn columns.  Every complex goes through the constructor, whose
`__post_init__` checks the row counts and d.d = 0.  A move replaces 2 or 3
consecutive maps, keeps the other map objects, and passes the complex it
started from as `parent`, so only the 3 or 4 products that the new maps enter
are multiplied again, and only the new maps' ranks are computed: the kept
maps carry the ranks their parent read.

Gradings:  mu_nat(e) = 2 e^2/a + sum_i (2/a_i) S(a/a_i, e, a_i) is an exact
integer for a flat connection with invariant e on the naturally oriented
sphere (it reproduces the classical {1, 5} for Sigma(2,3,5)).  It is computed
in integers as 2 a^2 mu_nat(e) = 4 a e^2 - N, with N = sum_i M_i (a/a_i)^2 of
the kernel seam `_kernels`, from one `_kernels.fiber_plan` read per sphere,
and a right-hand side that 2 a^2 does not divide is refused.  The complex of
an oriented sphere X (`build_floer_complex`, the one place this rule is applied)
places a generator in degree

    (mu_nat + 3) mod 8        if X carries the natural orientation,
    (-mu_nat - 6) mod 8       if X is reversed,

the spectral-flow normalization under which the surgery family has all-odd
degrees for K > 0 and all-even for K < 0.  Either way the degrees share one
parity, so every boundary map vanishes and the correction term is zero.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from operator import is_not
from random import Random
from typing import Iterable, Optional

from ._kernels import cotangent_numerator, fiber_plan
from .errors import GradingFormulaUnavailable, InapplicableMove
from .flat_moduli import enumerate_connections
from .seifert import BrieskornSphere


# ---------------------------------------------------------------------------
# bit-packed GF(2) matrices


@dataclass(slots=True, unsafe_hash=True, init=False)
class GF2Matrix:
    """Rows are ints; bit j of rows[i] is the (i, j) entry.  A value, equal
    and hash-equal on (rows, ncols), that memoises its rank: nothing assigns
    to it after construction."""

    rows: tuple[int, ...]
    ncols: int
    nrows: int = field(compare=False, repr=False)
    _rank: Optional[int] = field(compare=False, repr=False)

    def __init__(self, rows: tuple[int, ...], ncols: int):
        if ncols < 0:
            raise ValueError(f"ncols must be >= 0, got {ncols}")
        # min and max run in C; a row is refused exactly when r & ~mask != 0
        if rows and (min(rows) < 0 or max(rows) >> ncols):
            raise ValueError("row has bits beyond ncols")
        self.rows = rows
        self.ncols = ncols
        self.nrows = len(rows)
        self._rank = None

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "GF2Matrix":
        if nrows < 0:
            raise ValueError(f"nrows must be >= 0, got {nrows}")
        return cls((0,) * nrows, ncols)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def is_zero(self) -> bool:
        return not any(self.rows)

    def mul(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        orows = other.rows
        out = []
        for r in self.rows:
            acc = 0
            while r:
                low = r & -r
                acc ^= orows[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return GF2Matrix(tuple(out), other.ncols)

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix(_transpose(self.rows, self.ncols), self.nrows)

    def rank(self) -> int:
        rank = self._rank
        if rank is None:
            rank = self._rank = len(_echelon(self.rows))
        return rank


def _transpose(rows: Iterable[int], ncols: int) -> tuple[int, ...]:
    """The rows of the transpose of the matrix with these rows and ncols columns."""
    cols = [0] * ncols
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= bit
            r ^= low
    return tuple(cols)


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """An echelon basis of the row space: maps each basis row's lowest set
    bit, as a one-bit mask, to the row.  No two rows share a lowest bit, so
    the rank is the size of the dict."""
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            pivot = basis.get(low)
            if pivot is None:
                basis[low] = r
                break
            r ^= pivot
    return basis


def nullspace(M: GF2Matrix) -> list[int]:
    """Basis of {x : Mx = 0} as bitmasks over the ncols coordinates: for each
    column j with no pivot in `_echelon`, in ascending j, the one solution
    that is 1 at j and 0 at every other free column.  Back-substitution sets
    each pivot, highest first, to the parity of its row's other bits.  The
    solution is unique, so the basis depends on the row space alone.  Fills
    M's rank memo, so `random_complex` eliminates each map once."""
    echelon = _echelon(M.rows)
    M._rank = len(echelon)
    lows = sorted(echelon, reverse=True)
    basis = []
    for j in range(M.ncols):
        bit = 1 << j
        if bit not in echelon:
            v = bit
            for low in lows:
                if (echelon[low] & v).bit_count() & 1:
                    v |= low
            basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# graded complexes


@dataclass(slots=True, unsafe_hash=True)
class Z2ChainComplex:
    """boundary[p]: C_p -> C_{p-1} for the 8 degrees mod 8.  dims[p], the
    number of generators in degree p, is derived: boundary[p].ncols.  Given a
    `parent`, only the row counts and d.d products that involve a map not
    shared (as an object) with it are checked: the parent passed the rest.
    Equal and hash-equal on `boundary`; nothing assigns to it after
    construction."""

    boundary: tuple[GF2Matrix, ...]
    dims: tuple[int, ...] = field(init=False, compare=False)
    _ranks: Optional[tuple[int, ...]] = field(default=None, init=False, compare=False, repr=False)
    parent: InitVar[Optional[Z2ChainComplex]] = None

    def __post_init__(self, parent):
        bnd = self.boundary
        if len(bnd) != 8:
            raise ValueError("need exactly 8 boundary maps")
        b0, b1, b2, b3, b4, b5, b6, b7 = bnd
        self.dims = dims = (b0.ncols, b1.ncols, b2.ncols, b3.ncols,
                            b4.ncols, b5.ncols, b6.ncols, b7.ncols)
        if parent is None:
            new = (True,) * 8
        elif isinstance(parent, Z2ChainComplex):
            new = tuple(map(is_not, bnd, parent.boundary))
        else:
            raise TypeError(f"parent must be a Z2ChainComplex, not {type(parent).__name__}")
        # map p's rows must match map p-1's columns, and d.d at degree k+1 is
        # the product of maps k and k+1: each is checked if a new map is in it
        for p in range(8):
            if (new[p] or new[p - 1]) and bnd[p].nrows != dims[p - 1]:
                raise ValueError(f"boundary[{p}] has {bnd[p].nrows} rows, want {dims[p - 1]}")
        for k in range(8):
            up = (k + 1) % 8
            if (new[k] or new[up]) and not bnd[k].mul(bnd[up]).is_zero():
                raise ValueError(f"d. d != 0 at degree {up}")

    @property
    def ranks(self) -> tuple[int, ...]:
        """rank(boundary[p]) for p = 0..7, read off each map's memo."""
        ranks = self._ranks
        if ranks is None:
            ranks = self._ranks = tuple(map(GF2Matrix.rank, self.boundary))
        return ranks


def zero_complex(dims: tuple[int, ...]) -> Z2ChainComplex:
    return Z2ChainComplex(tuple(GF2Matrix.zero(dims[p - 1], dims[p]) for p in range(8)))


def floer_correction(cc: Z2ChainComplex) -> int:
    """sum_p (-1)^p rank(d: C_{p+1} -> C_p)."""
    r0, r1, r2, r3, r4, r5, r6, r7 = cc.ranks
    return r1 + r3 + r5 + r7 - r0 - r2 - r4 - r6


def homology_ranks(cc: Z2ChainComplex) -> tuple[int, ...]:
    r0, r1, r2, r3, r4, r5, r6, r7 = cc.ranks
    d0, d1, d2, d3, d4, d5, d6, d7 = cc.dims
    return (d0 - r0 - r1, d1 - r1 - r2, d2 - r2 - r3, d3 - r3 - r4,
            d4 - r4 - r5, d5 - r5 - r6, d6 - r6 - r7, d7 - r7 - r0)


def dual_reflect(cc: Z2ChainComplex) -> Z2ChainComplex:
    """Degree-reflected dual: p -> -3-p (mod 8), boundaries transposed.  This
    is the complex of the same sphere with the opposite orientation."""
    return Z2ChainComplex(tuple(cc.boundary[(-2 - p) % 8].transpose() for p in range(8)))


# ---------------------------------------------------------------------------
# moves


@dataclass(frozen=True)
class MorseMove:
    """kind 'isotopy' | 'handle_slide' | 'birth' | 'death'; pair names the two
    generators a slide or a death acts on, and neither applies without it.
    handle_slide: pair = (s, t) in degree p, the basis change g_s += g_t (an
    elementary matrix, its own inverse over GF(2)).  birth: new generators f
    in degree p and e in degree p+1 with de = f and no other incidences.
    death: cancel pair = (row f in C_p, col e in C_{p+1}), whose boundary
    entry must be 1.
    """

    kind: str
    p: int = 0
    pair: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.kind not in ("isotopy", "handle_slide", "birth", "death"):
            raise ValueError(f"unknown move kind {self.kind!r}")


def _delete_col(rows: Iterable[int], col: int) -> tuple[int, ...]:
    low = (1 << col) - 1
    return tuple(((r >> (col + 1)) << col) | (r & low) for r in rows)


def apply_move(cc: Z2ChainComplex, mv: MorseMove) -> Z2ChainComplex:
    """New complex after the move; the input is never mutated."""
    if mv.kind == "isotopy":
        return cc

    p = mv.p % 8
    bnd = list(cc.boundary)

    if mv.kind == "handle_slide":
        s, t = mv.pair or (-1, -1)
        if not (0 <= s < cc.dims[p] and 0 <= t < cc.dims[p] and s != t):
            raise InapplicableMove(f"cannot slide generator {s} over {t} in degree {p}")
        M = bnd[p]
        rows = tuple(r ^ (((r >> t) & 1) << s) for r in M.rows)  # col s += col t
        bnd[p] = GF2Matrix(rows, M.ncols)
        up = (p + 1) % 8
        N = bnd[up]
        new_rows = list(N.rows)
        new_rows[t] ^= new_rows[s]  # row t += row s
        bnd[up] = GF2Matrix(tuple(new_rows), N.ncols)
        return Z2ChainComplex(tuple(bnd), cc)

    if mv.kind == "birth":
        up, up2 = (p + 1) % 8, (p + 2) % 8
        M = bnd[up]  # C_{p+1} -> C_p
        new_rows = tuple(M.rows) + (1 << M.ncols,)  # new row f hit only by new col e
        bnd[up] = GF2Matrix(new_rows, M.ncols + 1)
        bnd[p] = GF2Matrix(bnd[p].rows, bnd[p].ncols + 1)  # df = 0
        bnd[up2] = GF2Matrix(bnd[up2].rows + (0,), bnd[up2].ncols)  # nothing else hits e
        return Z2ChainComplex(tuple(bnd), cc)

    # death
    up, up2 = (p + 1) % 8, (p + 2) % 8
    M = bnd[up]
    f, e = mv.pair or (-1, -1)
    if not (0 <= f < M.nrows and 0 <= e < M.ncols and M.entry(f, e)):
        raise InapplicableMove(f"no cancellable pair at {mv.pair} in degree {p}")
    # Gaussian cancellation of the pair (f, e), then row f and column e go
    frow = M.rows[f]
    rows = (r ^ frow if (r >> e) & 1 else r for r in M.rows[:f] + M.rows[f + 1:])
    bnd[up] = GF2Matrix(_delete_col(rows, e), M.ncols - 1)
    bnd[p] = GF2Matrix(_delete_col(bnd[p].rows, f), bnd[p].ncols - 1)
    N = bnd[up2]
    bnd[up2] = GF2Matrix(N.rows[:e] + N.rows[e + 1:], N.ncols)
    return Z2ChainComplex(tuple(bnd), cc)


# ---------------------------------------------------------------------------
# random complexes and moves, for fuzzing and simulation

# Largest max_dim `floer-sim` accepts: a complex holds dense
# dims[p-1] x dims[p] bit matrices, so its memory and time grow as max_dim^2.
MAX_DIM = 64
# Largest number of moves `floer-sim` accepts: its transcript keeps one entry,
# about 1.6 KB, per move until the output is written.
MAX_MOVES = 10_000


def random_complex(rng: Random, max_dim: int) -> Z2ChainComplex:
    """Random valid complex: a random boundary map is forced to zero and each
    other map is built once from columns drawn from the kernel of the previous
    map.  The draws, whose order the `floer-sim` goldens and the benchmark's
    seeded fuzz depend on: 8 `randint` dims, `randrange(8)` for the zero map,
    then one `random()` per column per kernel vector."""
    dims = tuple(rng.randint(0, max_dim) for _ in range(8))
    start = rng.randrange(8)
    bnd: dict[int, GF2Matrix] = {start: GF2Matrix.zero(dims[start - 1], dims[start])}
    for step in range(1, 8):
        p = (start + step) % 8
        kernel = nullspace(bnd[(p - 1) % 8])
        cols = []
        for _ in range(dims[p]):
            acc = 0
            for v in kernel:
                if rng.random() < 0.5:
                    acc ^= v
            cols.append(acc)
        bnd[p] = GF2Matrix(_transpose(cols, dims[p - 1]), dims[p])
    return Z2ChainComplex(tuple(bnd[p] for p in range(8)))


def random_move(rng: Random, cc: Z2ChainComplex) -> MorseMove:
    """A random applicable move, uniform over kinds that currently apply."""
    kinds = ["isotopy", "birth"]
    slide_degrees = [p for p in range(8) if cc.dims[p] >= 2]
    if slide_degrees:
        kinds.append("handle_slide")
    death_degrees = [p for p in range(8) if any(cc.boundary[(p + 1) % 8].rows)]
    if death_degrees:
        kinds.append("death")
    kind = rng.choice(kinds)
    if kind == "isotopy":
        return MorseMove("isotopy")
    if kind == "birth":
        return MorseMove("birth", p=rng.randrange(8))
    if kind == "handle_slide":
        p = rng.choice(slide_degrees)
        s, t = rng.sample(range(cc.dims[p]), 2)
        return MorseMove("handle_slide", p=p, pair=(s, t))
    p = rng.choice(death_degrees)
    M = cc.boundary[(p + 1) % 8]
    pairs = []  # the set entries, row by row, each row's in ascending column
    for i, r in enumerate(M.rows):
        while r:
            low = r & -r
            pairs.append((i, low.bit_length() - 1))
            r ^= low
    return MorseMove("death", p=p, pair=rng.choice(pairs))


# ---------------------------------------------------------------------------
# gradings of the surgery family


def _mu(plan: tuple, e: int) -> int:
    """mu_nat(e) on the sphere of `plan`; GradingFormulaUnavailable unless it is an integer."""
    _, prod, square = plan
    mu, rest = divmod(4 * prod * e * e - cotangent_numerator(plan, e), 2 * square)
    if rest:
        raise GradingFormulaUnavailable(f"grading for a={prod}, e={e} is not an integer")
    return mu


def r_invariant(a: tuple[int, int, int], e: int) -> int:
    """2 e^2 / a + cotangent total: an exact integer for every admissible e."""
    return _mu(fiber_plan(a), e)


def build_floer_complex(X: BrieskornSphere) -> Z2ChainComplex:
    """Generators in their grading degrees.  The degrees must share one parity
    (GradingFormulaUnavailable otherwise), so every boundary map vanishes and
    the correction term is zero."""
    plan = fiber_plan(X.a)
    sign, shift = (1, 3) if X.orientation == 1 else (-1, -6)  # see the module docstring
    dims = [0] * 8
    for c in enumerate_connections(X):
        dims[(sign * _mu(plan, c.e) + shift) % 8] += 1
    if any(dims[0::2]) and any(dims[1::2]):
        raise GradingFormulaUnavailable(f"the gradings of {X} fall in both parities, "
                                        f"dims {dims}; the boundary maps are not computed")
    return zero_complex(tuple(dims))
