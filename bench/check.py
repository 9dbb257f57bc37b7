"""Output checks for the benchmark, independent of the CLI's own verdict.

A `table` row carries the CLI's own reference columns and a MATCH/MISMATCH
status.  None of them is trusted here: Lambda and C are compared against a
second copy of the published closed forms for q in {3, 5, 7, 9}, kept in this
file so that a change to the program's stored table cannot pass unnoticed.
D is recovered as Lambda - A - B - C from the same closed forms.

A move is checked against the move laws of the GF(2) chain-complex
correction: isotopy and handle slides leave it unchanged, a birth in degrees
(p, p+1) raises it by (-1)^p, a death lowers it by (-1)^p, and the homology
ranks never change.

Every check returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import json
from fractions import Fraction

# q -> closed forms in K, coefficients highest power first.  B and C are
# cubic over linear; C and Lambda have one form per sign of K.
CLOSED_FORMS = {
    3: {
        "A": (3, -1, 0),
        "B": ((-24, -84, 13, 0), (36, -6)),
        "C+": ((12, 84, -11, 0), (72, -12)),
        "C-": ((12, 48, -5, 0), (72, -12)),
        "Lambda+": (Fraction(10, 4), Fraction(-9, 4), 0),
        "Lambda-": (Fraction(10, 4), Fraction(-11, 4), 0),
    },
    5: {
        "A": (33, -9, 0),
        "B": ((-200, -1620, 151, 0), (100, -10)),
        "C+": ((100, 1120, -87, 0), (200, -20)),
        "C-": ((100, 820, -57, 0), (200, -20)),
        "Lambda+": (Fraction(126, 4), Fraction(-79, 4), 0),
        "Lambda-": (Fraction(126, 4), Fraction(-85, 4), 0),
    },
    7: {
        "A": (138, -26, 0),
        "B": ((-784, -9128, 606, 0), (196, -14)),
        "C+": ((392, 5992, -330, 0), (392, -28)),
        "C-": ((392, 4816, -246, 0), (392, -28)),
        "Lambda+": (Fraction(540, 4), Fraction(-230, 4), 0),
        "Lambda-": (Fraction(540, 4), Fraction(-242, 4), 0),
    },
    9: {
        "A": (390, -58, 0),
        "B": ((-2160, -33192, 1714, 0), (324, -18)),
        "C+": ((1080, 20880, -890, 0), (648, -36)),
        "C-": ((1080, 17640, -710, 0), (648, -36)),
        "Lambda+": (Fraction(1540, 4), Fraction(-514, 4), 0),
        "Lambda-": (Fraction(1540, 4), Fraction(-534, 4), 0),
    },
}


def _poly(coeffs, K: int) -> Fraction:
    value = Fraction(0)
    for c in coeffs:
        value = value * K + c
    return value


def _ratio(forms, K: int) -> Fraction:
    num, den = forms
    return _poly(num, K) / _poly(den, K)


def closed_forms(q: int, K: int) -> dict[str, Fraction]:
    """A, B, C and Lambda of the (q, K) cell from the published closed forms."""
    forms = CLOSED_FORMS[q]
    sign = "+" if K > 0 else "-"
    return {
        "A": _poly(forms["A"], K),
        "B": _ratio(forms["B"], K),
        "C": _ratio(forms["C" + sign], K),
        "Lambda": _poly(forms["Lambda" + sign], K),
    }


def cell_problems(q: int, K: int, output: str) -> list[str]:
    """Problems in the JSON output of `table` for the single cell (q, K)."""
    try:
        rows = json.loads(output)["rows"]
        (row,) = [r for r in rows if (int(r["q"]), int(r["K"])) == (q, K)]
        lam = Fraction(row["Lambda_computed"])
        c = Fraction(row["C_computed"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"({q},{K}): unreadable output: {type(exc).__name__}: {exc}"]
    want = closed_forms(q, K)
    problems = []
    if lam != want["Lambda"]:
        problems.append(f"({q},{K}): Lambda {lam} != closed form {want['Lambda']}")
    if c != want["C"]:
        problems.append(f"({q},{K}): C {c} != closed form {want['C']}")
    if (4 * lam).denominator != 1:
        problems.append(f"({q},{K}): 4*Lambda = {4 * lam} is not an integer")
    D = lam - want["A"] - want["B"] - c
    if D != 0:
        problems.append(f"({q},{K}): D = Lambda - A - B - C = {D} != 0")
    return problems


def expected_jump(kind: str, p: int) -> int:
    """Change of the correction term under one move in degree p."""
    if kind in ("isotopy", "handle_slide"):
        return 0
    if kind == "birth":
        return (-1) ** p
    if kind == "death":
        return -((-1) ** p)
    raise ValueError(f"unknown move kind {kind!r}")


def move_problems(kind: str, p: int, before: int, after: int,
                  start_ranks: tuple, ranks: tuple) -> list[str]:
    """Problems with one applied move: the correction jump and the homology."""
    try:
        want = expected_jump(kind, p)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if after - before != want:
        problems.append(f"{kind} at p={p}: correction jumped by {after - before}, "
                        f"move rule says {want}")
    if tuple(ranks) != tuple(start_ranks):
        problems.append(f"{kind} at p={p}: homology ranks {tuple(ranks)} != "
                        f"{tuple(start_ranks)}")
    return problems
