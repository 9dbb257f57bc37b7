"""Z/8-graded chain complexes over GF(2), parametrized-Morse moves, and the
instanton gradings of the surgery family.

The correction term of a complex is sum_p (-1)^p rank(d: C_{p+1} -> C_p); it
is invariant under isotopy and handle slides, jumps by +(-1)^p at a birth in
degrees (p, p+1), and by -(-1)^p at the matching death.

Gradings:  mu_nat(e) = 2 e^2/a + sum_i (2/a_i) S(a/a_i, e, a_i) is an exact
integer for a flat connection with invariant e on the naturally oriented
sphere (it reproduces the classical {1, 5} for Sigma(2,3,5)).  With the
kernel's integers M_i = -4 a_i S(a/a_i, e, a_i) it reads

    2 a^2 mu_nat(e) = 4 a e^2 - sum_i M_i (a/a_i)^2,

so it is computed in integers, and a right-hand side that 2 a^2 does not
divide is refused.  The complex of an oriented sphere X places a generator
in degree

    (mu_nat + 3) mod 8        if X carries the natural orientation,
    (-mu_nat - 6) mod 8       if X is reversed,

the spectral-flow normalization under which the surgery family has all-odd
degrees for K > 0 and all-even for K < 0.  Either way the degrees share one
parity, so every boundary map vanishes and the correction term is zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Iterable, Optional

from .dedekind import cotangent_numerator
from .errors import GradingFormulaUnavailable, InapplicableMove
from .flat_moduli import FlatConnection, enumerate_connections
from .seifert import BrieskornSphere


# ---------------------------------------------------------------------------
# bit-packed GF(2) matrices


@dataclass(frozen=True)
class GF2Matrix:
    """Rows are ints; bit j of rows[i] is the (i, j) entry."""

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self):
        mask = (1 << self.ncols) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("row has bits beyond ncols")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "GF2Matrix":
        return cls((0,) * nrows, ncols)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def is_zero(self) -> bool:
        return not any(self.rows)

    def mul(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = []
        for r in self.rows:
            acc = 0
            j = 0
            while r:
                if r & 1:
                    acc ^= other.rows[j]
                r >>= 1
                j += 1
            out.append(acc)
        return GF2Matrix(tuple(out), other.ncols)

    def transpose(self) -> "GF2Matrix":
        cols = []
        for j in range(self.ncols):
            acc = 0
            for i, r in enumerate(self.rows):
                acc |= ((r >> j) & 1) << i
            cols.append(acc)
        return GF2Matrix(tuple(cols), self.nrows)

    def rank(self) -> int:
        return len(_rref_pivots(self.rows))


def _rref_pivots(rows: Iterable[int]) -> dict[int, int]:
    """Reduced row echelon form; maps pivot column -> row bitmask."""
    pivots: dict[int, int] = {}
    for r in rows:
        if not r:
            continue
        for c, pr in pivots.items():
            if (r >> c) & 1:
                r ^= pr
        if r:
            low = r & -r
            for c, pr in pivots.items():
                if pr & low:
                    pivots[c] = pr ^ r
            pivots[low.bit_length() - 1] = r
    return pivots


def nullspace(M: GF2Matrix) -> list[int]:
    """Basis of {x : Mx = 0} as bitmasks over the ncols coordinates."""
    pivots = _rref_pivots(M.rows)
    basis = []
    for j in range(M.ncols):
        if j in pivots:
            continue
        v = 1 << j
        for c, r in pivots.items():
            if (r >> j) & 1:
                v |= 1 << c
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# graded complexes


@dataclass(frozen=True)
class Z2ChainComplex:
    """boundary[p]: C_p -> C_{p-1} for the 8 degrees mod 8.  dims[p], the
    number of generators in degree p, is derived: boundary[p].ncols."""

    boundary: tuple[GF2Matrix, ...]
    dims: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if len(self.boundary) != 8:
            raise ValueError("need exactly 8 boundary maps")
        dims = tuple(M.ncols for M in self.boundary)
        object.__setattr__(self, "dims", dims)
        for p, M in enumerate(self.boundary):
            if M.nrows != dims[p - 1]:
                raise ValueError(f"boundary[{p}] has {M.nrows} rows, want {dims[p - 1]}")
        for p in range(8):
            if not self.boundary[p].mul(self.boundary[(p + 1) % 8]).is_zero():
                raise ValueError(f"d. d != 0 at degree {(p + 1) % 8}")


def zero_complex(dims: tuple[int, ...]) -> Z2ChainComplex:
    return Z2ChainComplex(tuple(GF2Matrix.zero(dims[p - 1], dims[p]) for p in range(8)))


def floer_correction(cc: Z2ChainComplex) -> int:
    """sum_p (-1)^p rank(d: C_{p+1} -> C_p)."""
    return sum((-1) ** p * cc.boundary[(p + 1) % 8].rank() for p in range(8))


def homology_ranks(cc: Z2ChainComplex) -> tuple[int, ...]:
    ranks = [M.rank() for M in cc.boundary]
    return tuple(cc.dims[p] - ranks[p] - ranks[(p + 1) % 8] for p in range(8))


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


def _delete_col(M: GF2Matrix, col: int) -> GF2Matrix:
    low = (1 << col) - 1
    rows = tuple(((r >> (col + 1)) << col) | (r & low) for r in M.rows)
    return GF2Matrix(rows, M.ncols - 1)


def _delete_row(M: GF2Matrix, row: int) -> GF2Matrix:
    return GF2Matrix(M.rows[:row] + M.rows[row + 1:], M.ncols)


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
        return Z2ChainComplex(tuple(bnd))

    if mv.kind == "birth":
        up, up2 = (p + 1) % 8, (p + 2) % 8
        M = bnd[up]  # C_{p+1} -> C_p
        new_rows = tuple(M.rows) + (1 << M.ncols,)  # new row f hit only by new col e
        bnd[up] = GF2Matrix(new_rows, M.ncols + 1)
        bnd[p] = GF2Matrix(bnd[p].rows, bnd[p].ncols + 1)  # df = 0
        bnd[up2] = GF2Matrix(bnd[up2].rows + (0,), bnd[up2].ncols)  # nothing else hits e
        return Z2ChainComplex(tuple(bnd))

    # death
    up, up2 = (p + 1) % 8, (p + 2) % 8
    M = bnd[up]
    f, e = mv.pair or (-1, -1)
    if not (0 <= f < M.nrows and 0 <= e < M.ncols and M.entry(f, e)):
        raise InapplicableMove(f"no cancellable pair at {mv.pair} in degree {p}")
    # Gaussian cancellation of the pair (f, e)
    frow = M.rows[f]
    rows = [r ^ frow if i != f and ((r >> e) & 1) else r for i, r in enumerate(M.rows)]
    M2 = _delete_col(_delete_row(GF2Matrix(tuple(rows), M.ncols), f), e)
    bnd[up] = M2
    bnd[p] = _delete_col(bnd[p], f)
    bnd[up2] = _delete_row(bnd[up2], e)
    return Z2ChainComplex(tuple(bnd))


# ---------------------------------------------------------------------------
# random complexes and moves, for fuzzing and simulation

# Largest max_dim `floer-sim` accepts: a complex holds dense
# dims[p-1] x dims[p] bit matrices, so its memory and time grow as max_dim^2.
MAX_DIM = 64
# Largest number of moves `floer-sim` accepts: its transcript keeps one entry,
# about 1.6 KB, per move until the output is written.
MAX_MOVES = 10_000


def random_complex(rng: Random, max_dim: int = 6) -> Z2ChainComplex:
    """Random valid complex: a random boundary map is forced to zero and the
    rest are built with columns drawn from the kernel of the previous map."""
    dims = tuple(rng.randint(0, max_dim) for _ in range(8))
    start = rng.randrange(8)
    bnd: dict[int, GF2Matrix] = {start: GF2Matrix.zero(dims[start - 1], dims[start])}
    for step in range(1, 8):
        p = (start + step) % 8
        prev = bnd[(p - 1) % 8]
        kernel = nullspace(prev)
        cols = []
        for _ in range(dims[p]):
            acc = 0
            for v in kernel:
                if rng.random() < 0.5:
                    acc ^= v
            cols.append(acc)
        bnd[p] = GF2Matrix(tuple(cols), dims[(p - 1) % 8]).transpose()
    return Z2ChainComplex(tuple(bnd[p] for p in range(8)))


def random_move(rng: Random, cc: Z2ChainComplex) -> MorseMove:
    """A random applicable move, uniform over kinds that currently apply."""
    kinds = ["isotopy", "birth"]
    slide_degrees = [p for p in range(8) if cc.dims[p] >= 2]
    if slide_degrees:
        kinds.append("handle_slide")
    death_degrees = [p for p in range(8) if not cc.boundary[(p + 1) % 8].is_zero()]
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
    pairs = [(i, j) for i in range(M.nrows) for j in range(M.ncols) if M.entry(i, j)]
    return MorseMove("death", p=p, pair=rng.choice(pairs))


# ---------------------------------------------------------------------------
# gradings of the surgery family


def r_invariant(a: tuple[int, int, int], e: int) -> int:
    """2 e^2 / a + cotangent total: an exact integer for every admissible e,
    computed as (4 a e^2 - N) / (2 a^2) from the integer N of
    `cotangent_numerator`."""
    prod = a[0] * a[1] * a[2]
    mu, rest = divmod(4 * prod * e * e - cotangent_numerator(a, e), 2 * prod * prod)
    if rest:
        raise GradingFormulaUnavailable(f"grading for a={a}, e={e} is not an integer")
    return mu


def floer_grading(c: FlatConnection) -> int:
    """Degree (mod 8) of the connection in its host's chain complex."""
    X = c.host
    mu = r_invariant(X.a, c.e)
    if X.orientation == 1:
        return (mu + 3) % 8
    return (-mu - 6) % 8


def build_floer_complex(X: BrieskornSphere) -> Z2ChainComplex:
    """Generators in their grading degrees.  The degrees must share one parity
    (GradingFormulaUnavailable otherwise), so every boundary map vanishes and
    the correction term is zero."""
    dims = [0] * 8
    for c in enumerate_connections(X):
        dims[floer_grading(c)] += 1
    if any(dims[0::2]) and any(dims[1::2]):
        raise GradingFormulaUnavailable(f"the gradings of {X} fall in both parities, "
                                        f"dims {dims}; the boundary maps are not computed")
    return zero_complex(tuple(dims))
