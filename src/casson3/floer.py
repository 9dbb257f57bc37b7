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

from dataclasses import dataclass
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

    @classmethod
    def from_lists(cls, entries: list[list[int]], ncols: Optional[int] = None) -> "GF2Matrix":
        ncols = len(entries[0]) if entries and ncols is None else (ncols or 0)
        rows = []
        for row in entries:
            acc = 0
            for j, v in enumerate(row):
                if v & 1:
                    acc |= 1 << j
            rows.append(acc)
        return cls(tuple(rows), ncols)

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

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
    """dims[p] generators in degree p (mod 8); boundary[p]: C_p -> C_{p-1}."""

    dims: tuple[int, ...]
    boundary: tuple[GF2Matrix, ...]

    def __post_init__(self):
        if len(self.dims) != 8 or len(self.boundary) != 8:
            raise ValueError("need exactly 8 graded pieces")
        for p in range(8):
            M = self.boundary[p]
            if M.nrows != self.dims[(p - 1) % 8] or M.ncols != self.dims[p]:
                raise ValueError(f"boundary[{p}] has shape {M.nrows}x{M.ncols}, "
                                 f"want {self.dims[(p - 1) % 8]}x{self.dims[p]}")
        for p in range(8):
            if not self.boundary[p].mul(self.boundary[(p + 1) % 8]).is_zero():
                raise ValueError(f"d. d != 0 at degree {(p + 1) % 8}")


def zero_complex(dims: tuple[int, ...]) -> Z2ChainComplex:
    return Z2ChainComplex(
        dims=tuple(dims),
        boundary=tuple(GF2Matrix.zero(dims[(p - 1) % 8], dims[p]) for p in range(8)),
    )


def floer_correction(cc: Z2ChainComplex) -> int:
    """sum_p (-1)^p rank(d: C_{p+1} -> C_p)."""
    return sum((-1) ** p * cc.boundary[(p + 1) % 8].rank() for p in range(8))


def homology_ranks(cc: Z2ChainComplex) -> tuple[int, ...]:
    return tuple(
        cc.dims[p] - cc.boundary[p].rank() - cc.boundary[(p + 1) % 8].rank()
        for p in range(8)
    )


def dual_reflect(cc: Z2ChainComplex) -> Z2ChainComplex:
    """Degree-reflected dual: p -> -3-p (mod 8), boundaries transposed."""
    dims = tuple(cc.dims[(-3 - p) % 8] for p in range(8))
    boundary = tuple(cc.boundary[(-2 - p) % 8].transpose() for p in range(8))
    return Z2ChainComplex(dims=dims, boundary=boundary)


# ---------------------------------------------------------------------------
# moves


@dataclass(frozen=True)
class MorseMove:
    """kind 'isotopy' | 'handle_slide' | 'birth' | 'death'.

    handle_slide: basis change g_source += g_target in degree p (an elementary
    matrix, its own inverse over GF(2)).  birth: new generators f in degree p
    and e in degree p+1 with de = f and no other incidences.  death: cancel a
    pair with boundary entry 1; pair = (row f in C_p, col e in C_{p+1}), or
    None to cancel the first available pair.
    """

    kind: str
    p: int = 0
    source: int = -1
    target: int = -1
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
    dims = list(cc.dims)
    bnd = list(cc.boundary)

    if mv.kind == "handle_slide":
        s, t = mv.source, mv.target
        if not (0 <= s < dims[p] and 0 <= t < dims[p] and s != t):
            raise InapplicableMove(f"cannot slide generator {s} over {t} in degree {p}")
        M = bnd[p]
        rows = tuple(r ^ (((r >> t) & 1) << s) for r in M.rows)  # col s += col t
        bnd[p] = GF2Matrix(rows, M.ncols)
        up = (p + 1) % 8
        N = bnd[up]
        new_rows = list(N.rows)
        new_rows[t] ^= new_rows[s]  # row t += row s
        bnd[up] = GF2Matrix(tuple(new_rows), N.ncols)
        return Z2ChainComplex(tuple(dims), tuple(bnd))

    if mv.kind == "birth":
        up, up2 = (p + 1) % 8, (p + 2) % 8
        M = bnd[up]  # C_{p+1} -> C_p
        new_rows = tuple(M.rows) + (1 << M.ncols,)  # new row f hit only by new col e
        bnd[up] = GF2Matrix(new_rows, M.ncols + 1)
        bnd[p] = GF2Matrix(bnd[p].rows, bnd[p].ncols + 1)  # df = 0
        bnd[up2] = GF2Matrix(bnd[up2].rows + (0,), bnd[up2].ncols)  # nothing else hits e
        dims[p] += 1
        dims[up] += 1
        return Z2ChainComplex(tuple(dims), tuple(bnd))

    # death
    up, up2 = (p + 1) % 8, (p + 2) % 8
    M = bnd[up]
    if mv.pair is not None:
        f, e = mv.pair
        if not (0 <= f < M.nrows and 0 <= e < M.ncols and M.entry(f, e)):
            raise InapplicableMove(f"no cancellable pair at {mv.pair} in degree {p}")
    else:
        f = e = -1
        for i, r in enumerate(M.rows):
            if r:
                f, e = i, (r & -r).bit_length() - 1
                break
        if f < 0:
            raise InapplicableMove(f"no cancellable pair in degrees ({p}, {p + 1})")
    # Gaussian cancellation of the pair (f, e)
    frow = M.rows[f]
    rows = [r ^ frow if i != f and ((r >> e) & 1) else r for i, r in enumerate(M.rows)]
    M2 = _delete_col(_delete_row(GF2Matrix(tuple(rows), M.ncols), f), e)
    bnd[up] = M2
    bnd[p] = _delete_col(bnd[p], f)
    bnd[up2] = _delete_row(bnd[up2], e)
    dims[p] -= 1
    dims[up] -= 1
    return Z2ChainComplex(tuple(dims), tuple(bnd))


# ---------------------------------------------------------------------------
# random complexes and moves, for fuzzing and simulation


def random_complex(rng: Random, max_dim: int = 6) -> Z2ChainComplex:
    """Random valid complex: a random boundary map is forced to zero and the
    rest are built with columns drawn from the kernel of the previous map."""
    dims = tuple(rng.randint(0, max_dim) for _ in range(8))
    start = rng.randrange(8)
    bnd: dict[int, GF2Matrix] = {start: GF2Matrix.zero(dims[(start - 1) % 8], dims[start])}
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
    return Z2ChainComplex(dims, tuple(bnd[p] for p in range(8)))


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
        return MorseMove("handle_slide", p=p, source=s, target=t)
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


def instanton_grading_natural(a: tuple[int, int, int], e: int) -> int:
    """Grading mod 8 on the naturally oriented sphere ({1, 5} for Sigma(2,3,5))."""
    return r_invariant(a, e) % 8


def floer_grading(c: FlatConnection) -> int:
    """Degree (mod 8) of the connection in its host's chain complex."""
    X = c.host
    if X.surgery_origin is None:
        raise GradingFormulaUnavailable(f"{X} is outside the surgery family")
    mu = r_invariant(X.a, c.e)
    if X.orientation == 1:
        return (mu + 3) % 8
    return (-mu - 6) % 8


def build_floer_complex(X: BrieskornSphere) -> Z2ChainComplex:
    """Generators in their grading degrees; all boundary maps vanish because
    the degrees share one parity, so the correction term is zero."""
    dims = [0] * 8
    for c in enumerate_connections(X):
        dims[floer_grading(c)] += 1
    return zero_complex(tuple(dims))
