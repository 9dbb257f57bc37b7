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
from dataclasses import dataclass, field
from random import Random
from typing import Iterable, Optional, Sequence

from . import __version__
from .assembly import (
    SUPPORTED_Q,
    assemble,
    reference_A,
    reference_B,
    reference_C,
    reference_Lambda,
)
from .dedekind import PATHS, c_correction, rho_adjoint
from .errors import Casson3Error
from .flat_moduli import enumerate_connections
from .floer import apply_move, floer_correction, random_complex, random_move
from .knotpoly import check_conjecture
from .polyrecon import fit_and_verify
from .seifert import from_surgery

SCHEMA = "casson3/1"


@dataclass
class RunConfig:
    """Validated run description; one subcommand plus its options."""

    subcommand: str
    q_list: tuple[int, ...] = ()
    k_list: tuple[int, ...] = ()
    fmt: str = "csv"
    path: str = "float"
    seed: int = 0
    verbosity: int = 0
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        for q in self.q_list:
            if q < 3 or q % 2 == 0:
                raise ValueError(f"q must be odd and >= 3, got {q}")
        if any(k == 0 for k in self.k_list):
            raise ValueError("K range must exclude 0")
        if self.subcommand == "fit":
            degree, samples = self.options["degree"], self.options["samples"]
            if degree < 0:
                raise ValueError(f"--degree must be >= 0, got {degree}")
            if samples < degree + 1:
                raise ValueError(f"--samples must be >= --degree + 1, got {samples}")
        if self.subcommand == "conjecture" and self.options.get("samples", 5) < 3:
            raise ValueError("--samples must be >= 3 for the quadratic fits")
        if self.subcommand == "floer_sim" and self.options.get("max_dim", 4) < 0:
            raise ValueError("--max-dim must be >= 0")


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


def _emit_csv(header: Sequence[str], rows: Iterable[Sequence], out) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(str(v) for v in row) + "\n")


def _emit_json(payload: dict, out) -> None:
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_markdown(header: Sequence[str], rows: Iterable[Sequence], out) -> None:
    out.write("| " + " | ".join(header) + " |\n")
    out.write("|" + "|".join("---" for _ in header) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(str(v) for v in row) + " |\n")


def _cells(cfg: RunConfig) -> list[tuple[int, int]]:
    return [(q, K) for q in sorted(cfg.q_list) for K in sorted(cfg.k_list)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_reps(cfg: RunConfig, out) -> int:
    header = ("q", "K", "L1", "L2", "L3", "t", "e")
    rows = []
    for q, K in _cells(cfg):
        for c in enumerate_connections(from_surgery(q, K)):
            rows.append((q, K, c.L[0], c.L[1], c.L[2], c.t_index, c.e))
    if cfg.fmt == "json":
        _emit_json({"schema": SCHEMA, "connections": [dict(zip(header, r)) for r in rows]}, out)
    else:
        _emit_csv(header, rows, out)
    return 0


def cmd_rho(cfg: RunConfig, out) -> int:
    per_connection = cfg.options.get("per_connection", False)
    if per_connection:
        header = ("q", "K", "L1", "L2", "L3", "t", "e", "rho", "float_value", "float_error")
        rows = []
        for q, K in _cells(cfg):
            X = from_surgery(q, K)
            for c in enumerate_connections(X):
                rv = rho_adjoint(c, path=cfg.path)
                rows.append((q, K, c.L[0], c.L[1], c.L[2], c.t_index, c.e,
                             rv.exact, repr(rv.float_check.value),
                             repr(rv.float_check.error_bound)))
    else:
        header = ("q", "K", "C")
        rows = [(q, K, c_correction(from_surgery(q, K), path=cfg.path))
                for q, K in _cells(cfg)]
    if cfg.fmt == "json":
        _emit_json({"schema": SCHEMA, "path": cfg.path,
                    "rows": [dict(zip(header, map(str, r))) for r in rows]}, out)
    else:
        _emit_csv(header, rows, out)
    return 0


def cmd_invariants(cfg: RunConfig, out) -> int:
    header = ("q", "K", "A", "B", "C", "D", "lambda_su2", "lambda_su3",
              "Lambda_su3", "four_Lambda_integral")
    reports = [assemble(q, K, path=cfg.path) for q, K in _cells(cfg)]
    rows = [
        (r.q, r.K, r.A, r.B, r.C, r.D, r.lambda_su2, r.lambda_su3, r.Lambda_su3,
         (4 * r.Lambda_su3).denominator == 1)
        for r in reports
    ]
    if cfg.fmt == "json":
        _emit_json({"schema": SCHEMA, "path": cfg.path,
                    "reports": [r.to_json_dict() for r in reports]}, out)
    elif cfg.fmt == "markdown-table":
        _emit_markdown(header, rows, out)
    else:
        _emit_csv(header, rows, out)
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
    if cfg.fmt == "json":
        _emit_json({"schema": SCHEMA, "mismatches": mismatches,
                    "rows": [dict(zip(header, map(str, row))) for row in rows]}, out)
    elif cfg.fmt == "markdown-table":
        _emit_markdown(header, rows, out)
    else:
        _emit_csv(header, rows, out)
    return 3 if mismatches else 0


def cmd_fit(cfg: RunConfig, out) -> int:
    q = cfg.q_list[0]
    sign = 1 if cfg.options["sign"] == "+" else -1
    target = cfg.options["target"]
    degree = cfg.options["degree"]
    samples = cfg.options["samples"]
    ks = [sign * k for k in range(1, samples + 1)]
    if target == "Lambda":
        vals = {K: assemble(q, K, path=cfg.path).Lambda_su3 for K in ks}
    elif target == "C":
        vals = {K: c_correction(from_surgery(q, K), path=cfg.path) for K in ks}
    elif target == "A":
        vals = {K: reference_A(q, K) for K in ks}
    else:
        vals = {K: reference_B(q, K) for K in ks}
    poly = fit_and_verify(vals, degree, extra_check_points=samples - degree - 1)
    payload = {
        "schema": SCHEMA,
        "q": q,
        "sign": cfg.options["sign"],
        "target": target,
        "degree": degree,
        "samples": samples,
        "checked_points": samples - degree - 1,
        "coefficients_low_to_high": [str(c) for c in poly.coeffs],
        "polynomial": poly.format("K"),
    }
    _emit_json(payload, out)
    return 0


def cmd_conjecture(cfg: RunConfig, out) -> int:
    samples = cfg.options.get("samples", 5)
    reports = []
    for q in sorted(cfg.q_list):
        plus = {K: assemble(q, K, path=cfg.path).Lambda_su3 for K in range(1, samples + 1)}
        minus = {K: assemble(q, K, path=cfg.path).Lambda_su3 for K in range(-samples, 0)}
        fit_plus = fit_and_verify(plus, 2, extra_check_points=samples - 3)
        fit_minus = fit_and_verify(minus, 2, extra_check_points=samples - 3)
        reports.append(check_conjecture(q, fit_plus, fit_minus))
    if cfg.fmt == "markdown-table":
        header = tuple(reports[0].keys())
        _emit_markdown(header, [tuple(r[k] for k in header) for r in reports], out)
    else:
        _emit_json({"schema": SCHEMA, "reports": reports}, out)
    return 0


def cmd_floer_sim(cfg: RunConfig, out) -> int:
    rng = Random(cfg.seed)
    cc = random_complex(rng, cfg.options.get("max_dim", 4))
    starting_dims = list(cc.dims)
    transcript = []
    for step in range(cfg.options.get("moves", 50)):
        mv = random_move(rng, cc)
        before = floer_correction(cc)
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
    _emit_json({"schema": SCHEMA, "seed": cfg.seed, "starting_dims": starting_dims,
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

    def add_common(p, fmt_choices=("csv", "json"), with_path=True):
        p.add_argument("--format", dest="fmt", choices=fmt_choices, default=fmt_choices[0])
        if with_path:
            p.add_argument("--path", choices=PATHS, default="float",
                           help="rho evaluation path")
        p.add_argument("-v", "--verbose", action="count", default=0, dest="verbosity")

    p = sub.add_parser("reps", help="enumerate irreducible SU(2) rotation numbers")
    p.add_argument("--q", required=True, help="odd q >= 3, comma separated")
    p.add_argument("--K", required=True, help="K or a..b range, excluding 0")
    add_common(p, with_path=False)

    p = sub.add_parser("rho", help="adjoint rho invariants / aggregate correction C")
    p.add_argument("--q", required=True)
    p.add_argument("--K", required=True)
    p.add_argument("--per-connection", action="store_true")
    add_common(p)

    p = sub.add_parser("invariants", help="full invariant reports")
    p.add_argument("--q", required=True)
    p.add_argument("--K-range", dest="K", required=True)
    add_common(p, fmt_choices=("csv", "json", "markdown-table"))

    p = sub.add_parser("table", help="computed values against the reference closed forms")
    p.add_argument("--q", default=",".join(str(q) for q in SUPPORTED_Q))
    p.add_argument("--K-range", dest="K", default="-6..6")
    add_common(p, fmt_choices=("csv", "json", "markdown-table"))

    p = sub.add_parser("fit", help="exact polynomial reconstruction of one target")
    p.add_argument("--q", required=True)
    p.add_argument("--sign", choices=("+", "-"), required=True)
    p.add_argument("--target", choices=("Lambda", "C", "A", "B"), default="Lambda")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    add_common(p, fmt_choices=("json",))

    p = sub.add_parser("conjecture", help="quadratic-difference report per q")
    p.add_argument("--q-list", dest="q", default="3,5,7,9")
    p.add_argument("--samples", type=int, default=5)
    add_common(p, fmt_choices=("json", "markdown-table"))

    p = sub.add_parser("floer-sim", help="audit transcript of random chain-complex moves")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--moves", type=int, default=50)
    p.add_argument("--max-dim", type=int, default=4)
    add_common(p, fmt_choices=("json",), with_path=False)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    options: dict = {}
    q_list: tuple[int, ...] = ()
    k_list: tuple[int, ...] = ()
    if getattr(args, "q", None) is not None:
        q_list = _parse_q_list(args.q)
    if getattr(args, "K", None) is not None:
        k_list = _parse_k_range(args.K)
    for key in ("per_connection", "sign", "target", "degree", "samples", "moves", "max_dim"):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    return RunConfig(
        subcommand=args.subcommand.replace("-", "_"),
        q_list=q_list,
        k_list=k_list,
        fmt=getattr(args, "fmt", "csv"),
        path=getattr(args, "path", "float"),
        seed=getattr(args, "seed", 0),
        verbosity=getattr(args, "verbosity", 0),
        options=options,
    )


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
    if config.verbosity:
        print(f"casson3 {__version__}: {config.subcommand} path={config.path}",
              file=sys.stderr)
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
