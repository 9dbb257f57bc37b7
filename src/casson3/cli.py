"""Batch command-line front end.

`_OPTIONS`, the one option table, maps each RunConfig field to its flags: --q
and --q-list both set q_list, --K and --K-range k_list.  `_SUBCOMMANDS` gives
each subcommand its handler, formats, summary and fields.  The parser is built
from the two, so a subcommand takes each flag of its fields spelled exactly (no
prefix matching) and no other; `RunConfig`, the one validator, refuses a field
its subcommand does not take.  Either refusal is a usage error under the
subcommand's usage line.  Output is deterministic: rationals are exact "p/q"
strings, JSON objects carry the schema tag "casson3/1", and rows come in sorted
(q, K) order.  `fit` reports the least degree that fits its samples.

Work bound: one rule for every subcommand.  `run` sums the flat connections of
the request's spheres (`_cells`) and checks the sum against MAX_CONNECTIONS
(`flat_moduli`) once, before the handler starts (exit 1).  `floer-sim` has no
cells and is bounded by MAX_DIM and MAX_MOVES.  A |K| of k_list, or a
--samples, over MAX_CONNECTIONS // 2 is a usage error, refused before anything
is built; that rule alone bounds `fit` of A or B, which enumerates nothing.

Exit codes: 0 success, 1 computation error, 2 usage error, 3 when `table`
finds a MISMATCH row.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, fields
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
from .dedekind import c_correction, rho_adjoint
from .errors import Casson3Error
from .flat_moduli import (MAX_CONNECTIONS, FlatConnection, check_connection_budget,
                          enumerate_connections)
from .floer import (MAX_DIM, MAX_MOVES, apply_move, floer_correction, random_complex,
                    random_move)
from .polynomial import fit_and_verify
from .seifert import from_surgery

SCHEMA = "casson3/1"

# what `fit` reconstructs: target -> ((q, K) -> value, whether it is cleared);
# C and B are each a cubic over 2qK - 1, so their numerator is fitted
_TARGETS = {
    "Lambda": (lambda q, K: assemble(q, K).Lambda_su3, False),
    "C": (lambda q, K: c_correction(from_surgery(q, K)), True),
    "A": (reference_A, False),
    "B": (reference_B, True),
}


@dataclass
class RunConfig:
    """Validated run description: one subcommand plus its options, with every
    default.  It is the only validator (the parser sets no default and requires
    no option), and it refuses a field off its default that its subcommand
    does not take, so a config built in code prints, or refuses, what the
    command line with the same settings does.  fmt None is the subcommand's
    first format; `table` and `conjecture` without q cover SUPPORTED_Q, and
    `table` without K covers -6..6, `fit` sign*1..samples, `conjecture` +-1..samples.
    `fit` and `conjecture` take --samples >= 2 and no degree; a fit that no
    sample checks is a computation error (exit 1)."""

    subcommand: str
    q_list: tuple[int, ...] = ()
    k_list: tuple[int, ...] = ()
    fmt: Optional[str] = None
    per_connection: bool = False
    sign: Optional[str] = None
    target: str = "Lambda"
    samples: int = 5
    seed: int = 0
    moves: int = 50
    max_dim: int = 4

    def __post_init__(self):
        if self.subcommand not in _SUBCOMMANDS:
            raise ValueError(f"no subcommand {self.subcommand!r}")
        _, formats, _, takes = _SUBCOMMANDS[self.subcommand]
        takes = {"subcommand", "fmt", *takes}
        for field in fields(self):
            if field.name not in takes and getattr(self, field.name) != field.default:
                raise ValueError(f"{self.subcommand} takes no {field.name}")
        if self.fmt is None:
            self.fmt = formats[0]
        elif self.fmt not in formats:
            raise ValueError(f"{self.subcommand} prints {formats}, not {self.fmt!r}")
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
        # a repeat would print its rows twice and count twice against the budget
        for name, values in (("q", self.q_list), ("K", self.k_list)):
            repeated = [v for v, n in Counter(values).items() if n > 1]
            if repeated:
                raise ValueError(f"{name} {repeated[0]} is given more than once")
        if self.subcommand == "fit":
            if len(self.q_list) != 1:
                raise ValueError(f"fit takes one q, got {len(self.q_list)}")
            if self.sign not in ("+", "-"):
                raise ValueError(f"fit needs --sign + or -, got {self.sign!r}")
            if self.target not in _TARGETS:
                raise ValueError(f"fit has no target {self.target!r}")
        if self.subcommand in ("fit", "conjecture"):
            if self.samples < 2:
                raise ValueError(f"--samples must be >= 2, got {self.samples}")
            if self.samples > MAX_CONNECTIONS // 2:  # the --K rule, before any K is built
                raise ValueError(f"--samples {self.samples} has |K| > {MAX_CONNECTIONS // 2}")
            signs = {"+": (1,), "-": (-1,)}.get(self.sign, (-1, 1))
            self.k_list = tuple(sorted(s * k for s in signs for k in range(1, self.samples + 1)))
        if self.subcommand == "floer_sim":
            if not 0 <= self.max_dim <= MAX_DIM:
                raise ValueError(f"--max-dim must be in 0..{MAX_DIM}, got {self.max_dim}")
            if not 0 <= self.moves <= MAX_MOVES:
                raise ValueError(f"--moves must be in 0..{MAX_MOVES}, got {self.moves}")


def _parse_k_range(text: str) -> tuple[int, ...]:
    """The --K and --K-range type: 'a..b' or a single integer, 0 left out."""
    import argparse
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"K {text!r} is not an integer or a..b") from None
    # checked before the range is built: every subcommand that takes K enumerates
    # its spheres, and (q^2 - 1)|K|/4 >= 2|K| connections is over the budget at
    # every q >= 3.
    if max(abs(lo), abs(hi)) > MAX_CONNECTIONS // 2:
        raise argparse.ArgumentTypeError(f"K {text!r} has |K| > {MAX_CONNECTIONS // 2}, over "
                                         f"{MAX_CONNECTIONS} flat connections at every q")
    ks = tuple(k for k in range(lo, hi + 1) if k != 0)
    if not ks:
        raise argparse.ArgumentTypeError(f"K range {text!r} contains no nonzero values")
    return ks


def _parse_q_list(text: str) -> tuple[int, ...]:
    """The --q and --q-list type: comma-separated integers."""
    import argparse
    try:
        qs = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"q list {text!r} is not integers") from None
    if not qs:
        raise argparse.ArgumentTypeError(f"q list {text!r} names no value")
    return qs


# RunConfig field -> (its flags, argparse settings): the one option table
_OPTIONS = {
    "q_list": (("--q", "--q-list"),
               {"type": _parse_q_list, "help": "odd q >= 3, comma separated"}),
    "k_list": (("--K", "--K-range"),
               {"type": _parse_k_range, "help": "K or a..b range, excluding 0"}),
    "per_connection": (("--per-connection",), {"action": "store_true"}),
    "sign": (("--sign",), {"choices": ("+", "-")}),
    "target": (("--target",), {"choices": _TARGETS}),
    "samples": (("--samples",), {"type": int}),
    "seed": (("--seed",), {"type": int}),
    "moves": (("--moves",), {"type": int}),
    "max_dim": (("--max-dim",), {"type": int}),
}


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
    """(q, K, connection) over every cell of the request."""
    return ((q, K, c) for q, K in _cells(cfg) for c in enumerate_connections(from_surgery(q, K)))


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
        for q, K, c in _connections(cfg):
            rv = rho_adjoint(c)
            rows.append((q, K, *c.L, c.t_index, c.e, rv.exact,
                         repr(rv.float_check.value), repr(rv.float_check.error_bound)))
    else:
        header = ("q", "K", "C")
        rows = [(q, K, c_correction(from_surgery(q, K))) for q, K in _cells(cfg)]
    _emit(cfg, header, rows,
          lambda: {"rows": [dict(zip(header, map(str, r))) for r in rows]}, out)
    return 0


def cmd_invariants(cfg: RunConfig, out) -> int:
    reports = [assemble(q, K).to_json_dict() for q, K in _cells(cfg)]
    header = tuple(reports[0])
    _emit(cfg, header, [tuple(r.values()) for r in reports],
          lambda: {"reports": reports}, out)
    return 0


def cmd_table(cfg: RunConfig, out) -> int:
    header = ("q", "K", "Lambda_computed", "Lambda_reference", "C_computed",
              "C_reference", "status")
    reports = [assemble(q, K) for q, K in _cells(cfg)]
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
    value, cleared = _TARGETS[cfg.target]
    vals = {K: value(q, K) * (cleared_denominator(q, K) if cleared else 1)
            for K in cfg.k_list}
    poly = fit_and_verify(vals)
    degree = max(poly.degree, 0)  # the zero polynomial is fitted at degree 0
    payload = {
        "q": q,
        "sign": cfg.sign,
        "target": cfg.target,
        "degree": degree,
        "samples": cfg.samples,
        "checked_points": cfg.samples - degree - 1,
        "coefficients_low_to_high": [str(c) for c in poly.coeffs],
        "polynomial": poly.format("K"),
    }
    if cleared:
        payload["cleared_by"] = "4q(2qK-1)"
    _emit_json(payload, out)
    return 0


def cmd_conjecture(cfg: RunConfig, out) -> int:
    from .knotpoly import check_conjecture
    reports = []
    for q in sorted(cfg.q_list):
        plus = {K: assemble(q, K).Lambda_su3 for K in cfg.k_list if K > 0}
        minus = {K: assemble(q, K).Lambda_su3 for K in cfg.k_list if K < 0}
        reports.append(check_conjecture(q, fit_and_verify(plus), fit_and_verify(minus)))
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


# subcommand (on the command line "_" is "-") -> (handler, formats, summary, fields)
_SUBCOMMANDS = {
    "reps": (cmd_reps, ("csv", "json"), "enumerate irreducible SU(2) rotation numbers",
             ("q_list", "k_list")),
    "rho": (cmd_rho, ("csv", "json"), "adjoint rho invariants / aggregate correction C",
            ("q_list", "k_list", "per_connection")),
    "invariants": (cmd_invariants, ("csv", "json", "markdown-table"),
                   "full invariant reports", ("q_list", "k_list")),
    "table": (cmd_table, ("csv", "json", "markdown-table"),
              "computed values against the reference closed forms", ("q_list", "k_list")),
    "fit": (cmd_fit, ("json",), "exact polynomial reconstruction of one target",
            ("q_list", "sign", "target", "samples")),
    "conjecture": (cmd_conjecture, ("json", "markdown-table"),
                   "quadratic-difference report per q", ("q_list", "samples")),
    "floer_sim": (cmd_floer_sim, ("json",), "audit transcript of random chain-complex moves",
                  ("seed", "moves", "max_dim")),
}


def run(config: RunConfig, out=None) -> int:
    """Check the request's connection budget, then run it; returns the exit status."""
    # only `fit` sets a target, and A or B reads stored forms
    if config.target not in ("A", "B"):
        check_connection_budget(_cells(config))
    return _SUBCOMMANDS[config.subcommand][0](config, out or sys.stdout)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="casson3", allow_abbrev=False,
        description="Exact SU(3) Casson-type invariants of 1/K surgeries on (2,q) torus knots",
    )
    parser.add_argument("--version", action="version", version=f"casson3 {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, formats, summary, takes) in _SUBCOMMANDS.items():
        # an option the user leaves out stays off the namespace, so RunConfig
        # supplies its default
        p = sub.add_parser(name.replace("_", "-"), help=summary, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--format", dest="fmt", choices=formats)
        for field in takes:
            p.add_argument(*_OPTIONS[field][0], dest=field, **_OPTIONS[field][1])
        # subcommand: the RunConfig name; usage_error: how main reports a usage error
        p.set_defaults(subcommand=name, usage_error=p.error)
    return parser


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    """Join '--K -3..3' style pairs into '--K=-3..3' so argparse does not read
    the leading dash of a negative range as an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _OPTIONS["k_list"][0]:
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, unknown = build_parser().parse_known_args(_normalize_argv(argv))
    usage_error = vars(args).pop("usage_error")
    try:
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        config = RunConfig(**vars(args))
    except ValueError as exc:
        usage_error(str(exc))  # exits 2
    try:
        return run(config)
    except Casson3Error as exc:
        print(f"casson3: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
