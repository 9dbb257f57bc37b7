"""Golden CLI outputs: stdout bytes and exit codes of a fixed set of commands,
compared in-process against the files under tests/golden/.

The commands (file name: arguments) are

    table:                    table
    table_json:               table --K-range -3..3 --format json
    invariants_csv:           invariants --q 3,5 --K-range -3..3
    invariants_markdown:      invariants --q 3,5 --K-range -3..3 --format markdown-table
    invariants_json:          invariants --q 3,5 --K-range -3..3 --format json
    rho:                      rho --q 3,5,7,9 --K -4..4
    fit_A / fit_B / fit_C / fit_Lambda:
                              fit --q 5 --sign + --target T --samples 6
    conjecture:               conjecture
    conjecture_markdown:      conjecture --q-list 3,5 --samples 4 --format markdown-table
    reps:                     reps --q 5 --K -2..2
    floer_sim:                floer-sim --seed 3 --moves 40
    floer_sim_slides:         floer-sim --seed 7 --moves 100 --max-dim 6

and every one of them exits 0.  None prints a float column (the float
cross-check of `rho --per-connection` depends on the platform's numpy), so
each file holds exact output only.  A file is written by running its command
and saving stdout; a change that alters one of these bytes must say why.
"""
import io
import sys
from pathlib import Path

from casson3.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "table": ["table"],
    "table_json": ["table", "--K-range", "-3..3", "--format", "json"],
    "invariants_csv": ["invariants", "--q", "3,5", "--K-range", "-3..3"],
    "invariants_markdown": ["invariants", "--q", "3,5", "--K-range", "-3..3",
                            "--format", "markdown-table"],
    "invariants_json": ["invariants", "--q", "3,5", "--K-range", "-3..3", "--format", "json"],
    "rho": ["rho", "--q", "3,5,7,9", "--K", "-4..4"],
    "fit_A": ["fit", "--q", "5", "--sign", "+", "--target", "A", "--samples", "6"],
    "fit_B": ["fit", "--q", "5", "--sign", "+", "--target", "B", "--samples", "6"],
    "fit_C": ["fit", "--q", "5", "--sign", "+", "--target", "C", "--samples", "6"],
    "fit_Lambda": ["fit", "--q", "5", "--sign", "+", "--target", "Lambda", "--samples", "6"],
    "conjecture": ["conjecture"],
    "conjecture_markdown": ["conjecture", "--q-list", "3,5", "--samples", "4",
                            "--format", "markdown-table"],
    "reps": ["reps", "--q", "5", "--K", "-2..2"],
    "floer_sim": ["floer-sim", "--seed", "3", "--moves", "40"],
    "floer_sim_slides": ["floer-sim", "--seed", "7", "--moves", "100", "--max-dim", "6"],
}


def run_captured(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_cli_outputs_match_the_golden_files():
    for name, argv in COMMANDS.items():
        code, out = run_captured(argv)
        assert code == 0, name
        assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes(), name
