"""Batch command-line front end.

Subcommands: reps, rho, invariants, table, fit, conjecture, floer-sim.
Output is deterministic for a fixed configuration: rationals are serialized
as exact "p/q" strings, JSON objects carry the schema tag "casson3/1", and
rows are emitted in sorted (q, K) order.

Exit codes: 0 success, 1 computation error, 2 usage error, 3 when `table`
finds a MISMATCH row.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import __version__
from .assembly import (
    SUPPORTED_Q,
    assemble,
    cleared_denominator,
    reference_A,
    reference_B,
    reference_C,
    reference_Lambda,
)
from .dedekind import PATHS, c_correction, rho_adjoint
from .errors import Casson3Error
from .flat_moduli import FlatConnection, check_connection_budget, enumerate_connections
from .floer import (MAX_DIM, MAX_MOVES, apply_move, floer_correction, random_complex,
                    random_move)
from .knotpoly import check_conjecture
from .polynomial import fit_and_verify
from .seifert import from_surgery

SCHEMA = "casson3/1"

# Output formats of each subcommand; the first is its default.
_FORMATS = {
    "reps": ("csv", "json"),
    "rho": ("csv", "json"),
    "invariants": ("csv", "json", "markdown-table"),
    "table": ("csv", "json", "markdown-table"),
    "fit": ("json",),
    "conjecture": ("json", "markdown-table"),
    "floer_sim": ("json",),
}

_TARGETS = ("Lambda", "C", "A", "B")  # what `fit` reconstructs


@dataclass
class RunConfig:
    """Validated run description: one subcommand plus its options, with every
    default (the parser sets none), so a config built in code prints what the
    command line with the same settings prints.  fmt None is the subcommand's
    first format; `table` and `conjecture` without q cover SUPPORTED_Q, and
    `table` without K covers -6..6."""

    subcommand: str
    q_list: tuple[int, ...] = ()
    k_list: tuple[int, ...] = ()
    fmt: Optional[str] = None
    path: str = "float"
    per_connection: bool = False
    sign: Optional[str] = None
    target: str = "Lambda"
    degree: Optional[int] = None
    samples: int = 5
    seed: int = 0
    moves: int = 50
    max_dim: int = 4

    def __post_init__(self):
        formats = _FORMATS[self.subcommand]
        if self.fmt is None:
            self.fmt = formats[0]
        elif self.fmt not in formats:
            raise ValueError(f"{self.subcommand} prints {formats}, not {self.fmt!r}")
        if self.path not in PATHS:
            raise ValueError(f"path must be one of {PATHS}, got {self.path!r}")
        if self.subcommand in ("table", "conjecture") and not self.q_list:
            self.q_list = SUPPORTED_Q
        if self.subcommand == "table" and not self.k_list:
            self.k_list = tuple(k for k in range(-6, 7) if k)
        if self.subcommand in ("reps", "rho", "invariants"):
            if not (self.q_list and self.k_list):
                raise ValueError(f"{self.subcommand} needs q and K")
        for q in self.q_list:
            if q < 3 or q % 2 == 0:
                raise ValueError(f"q must be odd and >= 3, got {q}")
        if any(k == 0 for k in self.k_list):
            raise ValueError("K range must exclude 0")
        if self.subcommand == "fit":
            if len(self.q_list) != 1:
                raise ValueError(f"fit takes one q, got {len(self.q_list)}")
            if self.sign not in ("+", "-"):
                raise ValueError(f"fit needs --sign + or -, got {self.sign!r}")
            if self.target not in _TARGETS:
                raise ValueError(f"fit has no target {self.target!r}")
            if self.degree is None or self.degree < 0:
                raise ValueError(f"--degree must be >= 0, got {self.degree}")
            if self.samples < self.degree + 1:
                raise ValueError(f"--samples must be >= --degree + 1, got {self.samples}")
        if self.subcommand == "conjecture" and self.samples < 3:
            raise ValueError("--samples must be >= 3 for the quadratic fits")
        if self.subcommand == "floer_sim":
            if not 0 <= self.max_dim <= MAX_DIM:
                raise ValueError(f"--max-dim must be in 0..{MAX_DIM}, got {self.max_dim}")
            if not 0 <= self.moves <= MAX_MOVES:
                raise ValueError(f"--moves must be in 0..{MAX_MOVES}, got {self.moves}")


def _parse_k_range(text: str) -> tuple[int, ...]:
    """'a..b' or a single integer; 0 is never a valid surgery coefficient."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        ks = tuple(k for k in range(lo, hi + 1) if k != 0)
        if not ks:
            raise ValueError(f"K range {text!r} contains no nonzero values")
        return ks
    k = int(text)
    if k == 0:
        raise ValueError("K must be nonzero")
    return (k,)


def _parse_q_list(text: str) -> tuple[int, ...]:
    qs = tuple(int(part) for part in text.split(",") if part.strip())
    if not qs:
        raise ValueError(f"q list {text!r} names no value")
    return qs


def _emit_json(payload: dict, out) -> None:
    out.write(json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True) + "\n")


def _emit(cfg: RunConfig, header: Sequence[str], rows: Iterable[Sequence],
          payload: Callable[[], dict], out) -> None:
    """The rows as csv or a markdown table, or the payload as JSON, per cfg.fmt.
    payload builds the JSON object, so csv and markdown never pay for it."""
    if cfg.fmt == "json":
        _emit_json(payload(), out)
        return
    if cfg.fmt == "markdown-table":
        out.write("| " + " | ".join(header) + " |\n")
        out.write("|" + "|".join("---" for _ in header) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(str(v) for v in row) + " |\n")
        return
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(str(v) for v in row) + "\n")


def _cells(cfg: RunConfig) -> list[tuple[int, int]]:
    return [(q, K) for q in sorted(cfg.q_list) for K in sorted(cfg.k_list)]


def _connections(cfg: RunConfig) -> Iterator[tuple[int, int, FlatConnection]]:
    """(q, K, connection) over every cell of the request.  The caller keeps
    every row until the output is written, so the whole request is checked
    against the connection budget before the first sphere is enumerated."""
    cells = _cells(cfg)
    check_connection_budget(cells)
    for q, K in cells:
        for c in enumerate_connections(from_surgery(q, K)):
            yield q, K, c


# ---------------------------------------------------------------------------
# subcommands


def cmd_reps(cfg: RunConfig, out) -> int:
    header = ("q", "K", "L1", "L2", "L3", "t", "e")
    rows = [(q, K, *c.L, c.t_index, c.e) for q, K, c in _connections(cfg)]
    _emit(cfg, header, rows, lambda: {"connections": [dict(zip(header, r)) for r in rows]},
          out)
    return 0


def cmd_rho(cfg: RunConfig, out) -> int:
    if cfg.per_connection:
        header = ("q", "K", "L1", "L2", "L3", "t", "e", "rho", "float_value", "float_error")
        rows = []
        # each rho from the integer kernel; --path chooses only how C is summed
        for q, K, c in _connections(cfg):
            rv = rho_adjoint(c, path="exact")
            rows.append((q, K, *c.L, c.t_index, c.e, rv.exact,
                         repr(rv.float_check.value), repr(rv.float_check.error_bound)))
    else:
        header = ("q", "K", "C")
        rows = [(q, K, c_correction(from_surgery(q, K), path=cfg.path))
                for q, K in _cells(cfg)]
    _emit(cfg, header, rows,
          lambda: {"path": cfg.path, "rows": [dict(zip(header, map(str, r))) for r in rows]},
          out)
    return 0


def cmd_invariants(cfg: RunConfig, out) -> int:
    reports = [assemble(q, K, path=cfg.path).to_json_dict() for q, K in _cells(cfg)]
    header = tuple(reports[0])
    _emit(cfg, header, [tuple(r.values()) for r in reports],
          lambda: {"path": cfg.path, "reports": reports}, out)
    return 0


def cmd_table(cfg: RunConfig, out) -> int:
    header = ("q", "K", "Lambda_computed", "Lambda_reference", "C_computed",
              "C_reference", "status")
    reports = [assemble(q, K, path=cfg.path) for q, K in _cells(cfg)]
    rows = []
    mismatches = 0
    for r in reports:
        lam_ref = reference_Lambda(r.q, r.K)
        c_ref = reference_C(r.q, r.K)
        ok = r.Lambda_su3 == lam_ref and r.C == c_ref
        mismatches += 0 if ok else 1
        rows.append((r.q, r.K, r.Lambda_su3, lam_ref, r.C, c_ref,
                     "MATCH" if ok else "MISMATCH"))
    _emit(cfg, header, rows,
          lambda: {"mismatches": mismatches,
                   "rows": [dict(zip(header, map(str, row))) for row in rows]}, out)
    return 3 if mismatches else 0


def cmd_fit(cfg: RunConfig, out) -> int:
    q = cfg.q_list[0]
    sign = 1 if cfg.sign == "+" else -1
    ks = [sign * k for k in range(1, cfg.samples + 1)]
    payload = {}
    if cfg.target == "Lambda":
        vals = {K: assemble(q, K, path=cfg.path).Lambda_su3 for K in ks}
    elif cfg.target == "C":
        vals = {K: c_correction(from_surgery(q, K), path=cfg.path) for K in ks}
    elif cfg.target == "A":
        vals = {K: reference_A(q, K) for K in ks}
    else:
        vals = {K: reference_B(q, K) for K in ks}
    if cfg.target in ("C", "B"):
        # both are a cubic over 2qK - 1, so the cleared numerator is fitted
        vals = {K: cleared_denominator(q, K) * v for K, v in vals.items()}
        payload["cleared_by"] = "4q(2qK-1)"
    poly = fit_and_verify(vals, cfg.degree)
    payload.update({
        "q": q,
        "sign": cfg.sign,
        "target": cfg.target,
        "degree": cfg.degree,
        "samples": cfg.samples,
        "checked_points": cfg.samples - cfg.degree - 1,
        "coefficients_low_to_high": [str(c) for c in poly.coeffs],
        "polynomial": poly.format("K"),
    })
    _emit_json(payload, out)
    return 0


def cmd_conjecture(cfg: RunConfig, out) -> int:
    samples = cfg.samples
    reports = []
    for q in sorted(cfg.q_list):
        plus = {K: assemble(q, K, path=cfg.path).Lambda_su3 for K in range(1, samples + 1)}
        minus = {K: assemble(q, K, path=cfg.path).Lambda_su3 for K in range(-samples, 0)}
        reports.append(check_conjecture(q, fit_and_verify(plus, 2), fit_and_verify(minus, 2)))
    header = tuple(reports[0])
    _emit(cfg, header, [tuple(r[k] for k in header) for r in reports],
          lambda: {"reports": reports}, out)
    return 0


def cmd_floer_sim(cfg: RunConfig, out) -> int:
    rng = Random(cfg.seed)
    cc = random_complex(rng, cfg.max_dim)
    starting_dims = list(cc.dims)
    transcript = []
    after = floer_correction(cc)
    for step in range(cfg.moves):
        mv = random_move(rng, cc)
        before = after
        cc = apply_move(cc, mv)
        after = floer_correction(cc)
        transcript.append({
            "step": step,
            "move": mv.kind,
            "p": mv.p,
            "correction_before": before,
            "correction_after": after,
            "delta": after - before,
        })
    _emit_json({"seed": cfg.seed, "starting_dims": starting_dims,
                "transcript": transcript}, out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casson3",
        description="Exact SU(3) Casson-type invariants of 1/K surgeries on (2,q) torus knots",
    )
    parser.add_argument("--version", action="version", version=f"casson3 {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, summary: str, with_path: bool = True) -> argparse.ArgumentParser:
        # an option the user leaves out stays off the namespace, so RunConfig
        # supplies its default
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--format", dest="fmt", choices=_FORMATS[name.replace("-", "_")])
        if with_path:
            p.add_argument("--path", choices=PATHS, help="rho evaluation path")
        return p

    p = add("reps", "enumerate irreducible SU(2) rotation numbers", with_path=False)
    p.add_argument("--q", required=True, help="odd q >= 3, comma separated")
    p.add_argument("--K", required=True, help="K or a..b range, excluding 0")

    p = add("rho", "adjoint rho invariants / aggregate correction C")
    p.add_argument("--q", required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--per-connection", action="store_true")

    p = add("invariants", "full invariant reports")
    p.add_argument("--q", required=True)
    p.add_argument("--K-range", dest="K", required=True)

    p = add("table", "computed values against the reference closed forms")
    p.add_argument("--q")
    p.add_argument("--K-range", dest="K")

    p = add("fit", "exact polynomial reconstruction of one target")
    p.add_argument("--q", required=True)
    p.add_argument("--sign", choices=("+", "-"), required=True)
    p.add_argument("--target", choices=_TARGETS)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)

    p = add("conjecture", "quadratic-difference report per q")
    p.add_argument("--q-list", dest="q")
    p.add_argument("--samples", type=int)

    p = add("floer-sim", "audit transcript of random chain-complex moves", with_path=False)
    p.add_argument("--seed", type=int)
    p.add_argument("--moves", type=int)
    p.add_argument("--max-dim", type=int)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig of the parsed arguments, passed on as keywords; only what the user set."""
    given = vars(args)
    subcommand = given.pop("subcommand").replace("-", "_")
    if "q" in given:
        given["q_list"] = _parse_q_list(given.pop("q"))
    if "K" in given:
        given["k_list"] = _parse_k_range(given.pop("K"))
    return RunConfig(subcommand, **given)


_COMMANDS = {
    "reps": cmd_reps,
    "rho": cmd_rho,
    "invariants": cmd_invariants,
    "table": cmd_table,
    "fit": cmd_fit,
    "conjecture": cmd_conjecture,
    "floer_sim": cmd_floer_sim,
}


def run(config: RunConfig, out=None) -> int:
    """Execute one validated configuration; returns the process exit status."""
    return _COMMANDS[config.subcommand](config, out or sys.stdout)


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    """Join '--K -3..3' style pairs into '--K=-3..3' so argparse does not read
    the leading dash of a negative range as an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--K", "--K-range") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(sys.argv[1:] if argv is None else argv))
    try:
        config = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    try:
        return run(config)
    except Casson3Error as exc:
        print(f"casson3: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
