import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

import casson3
from casson3 import cli, dedekind, flat_moduli
from casson3.assembly import _TABLE
from casson3.cli import RunConfig, main, run
from casson3.floer import MAX_DIM, MAX_MOVES, random_complex


def run_cli(args):
    """Invoke main() capturing stdout; returns (exit_code, output)."""
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_reps_csv_q3():
    code, out = run_cli(["reps", "--q", "3", "--K", "1"])
    assert code == 0
    assert out == "q,K,L1,L2,L3,t,e\n3,1,1,1,1,1,31\n3,1,1,1,3,2,43\n"


def test_reps_deterministic():
    args = ["reps", "--q", "3,5", "--K", "-2..2"]
    assert run_cli(args) == run_cli(args)


def test_rho_aggregate_and_per_connection():
    code, out = run_cli(["rho", "--q", "3", "--K", "1", "--path", "exact"])
    assert code == 0
    assert out.splitlines()[1] == "3,1,17/12"
    code, out = run_cli(["rho", "--q", "3", "--K", "1", "--per-connection",
                         "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "casson3/1"
    assert [row["rho"] for row in payload["rows"]] == ["73/15", "97/15"]


def test_per_connection_rho_comes_from_the_integer_kernel(monkeypatch):
    # a wrong lattice point from snapping never reaches the printed rho
    monkeypatch.setattr(dedekind, "snap_rho", lambda estimate, X: Fraction(0))
    code, out = run_cli(["rho", "--q", "3", "--K", "1", "--per-connection"])
    assert code == 0
    assert [line.split(",")[7] for line in out.splitlines()[1:]] == ["73/15", "97/15"]


def test_invariants_rows_and_flag():
    code, out = run_cli(["invariants", "--q", "3", "--K-range", "-3..3"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7  # header + 6 rows (0 excluded)
    assert lines[4] == "3,1,2,-19/6,17/12,0,2,-7/6,1/4,True"
    assert all(line.endswith(",True") for line in lines[1:])


def test_invariants_markdown_and_json():
    code, out = run_cli(["invariants", "--q", "3", "--K-range", "1..2",
                         "--format", "markdown-table"])
    assert code == 0
    assert out.startswith("| q | K | A | B |")
    code, out = run_cli(["invariants", "--q", "3", "--K-range", "1..1",
                         "--format", "json"])
    payload = json.loads(out)
    assert payload["schema"] == "casson3/1"
    assert payload["reports"][0]["Lambda_su3"] == "1/4"


def test_table_matches_and_exit_code():
    code, out = run_cli(["table", "--q", "3", "--K-range", "-2..2"])
    assert code == 0
    assert "MISMATCH" not in out
    assert out.count("MATCH") == 4


@pytest.mark.parametrize("subcommand, fmt, builds", [
    ("reps", "csv", 0), ("rho", "csv", 0), ("table", "markdown-table", 0),
    ("reps", "json", 1), ("rho", "json", 1),
])
def test_json_payload_is_built_only_for_json(monkeypatch, subcommand, fmt, builds):
    calls = []
    real_emit = cli._emit

    def counting_emit(cfg, header, rows, payload, out):
        def build():
            calls.append(subcommand)
            return payload()
        real_emit(cfg, header, rows, build, out)

    monkeypatch.setattr(cli, "_emit", counting_emit)
    run(RunConfig(subcommand, q_list=(3,), k_list=(1,), fmt=fmt), io.StringIO())
    assert len(calls) == builds


def test_fit_json():
    code, out = run_cli(["fit", "--q", "5", "--sign", "-", "--degree", "2",
                         "--samples", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients_low_to_high"] == ["0", "-85/4", "63/2"]
    assert payload["checked_points"] == 2


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_fit_cleared_c_and_b_give_the_stored_numerators(q, sign):
    # C: the fitted closed form's numerator, 4q(2qK - 1) C =
    # (q^2 - 1)[q^2 K^3/6 + q(4q^2 + 3 sigma q - 3) K^2/12 - (q^2 + sigma q - 1) K/8]
    s = 1 if sign == "+" else -1
    c_num = [Fraction(0), Fraction(-(q * q - 1) * (q * q + s * q - 1), 8),
             Fraction((q * q - 1) * q * (4 * q * q + 3 * s * q - 3), 12),
             Fraction((q * q - 1) * q * q, 6)]
    b_num = _TABLE[q]["B"].coeffs
    for target, num in (("C", c_num), ("B", b_num)):
        code, out = run_cli(["fit", "--q", str(q), "--sign", sign, "--target", target,
                             "--degree", "3", "--samples", "6"])
        assert code == 0
        payload = json.loads(out)
        assert payload["cleared_by"] == "4q(2qK-1)"
        assert payload["coefficients_low_to_high"] == [str(c) for c in num]


def test_fit_wrong_degree_is_computation_error():
    code, _ = run_cli(["fit", "--q", "3", "--sign", "+", "--degree", "1",
                       "--samples", "4"])
    assert code == 1


def test_conjecture_json():
    code, out = run_cli(["conjecture", "--q-list", "3,5", "--samples", "4"])
    assert code == 0
    payload = json.loads(out)
    assert [r["q"] for r in payload["reports"]] == [3, 5]
    assert all(r["difference_equals_quarter_N_K"] for r in payload["reports"])


def test_floer_sim_transcript():
    args = ["floer-sim", "--seed", "7", "--moves", "100", "--max-dim", "4"]
    code, out = run_cli(args)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "casson3/1"
    assert len(payload["transcript"]) == 100
    for entry in payload["transcript"]:
        delta = entry["delta"]
        assert delta == entry["correction_after"] - entry["correction_before"]
        if entry["move"] in ("isotopy", "handle_slide"):
            assert delta == 0
        else:
            assert delta in (1, -1)
    # determinism for a fixed seed
    assert run_cli(args)[1] == out
    assert payload["starting_dims"] == list(random_complex(Random(7), 4).dims)


def test_floer_sim_computes_one_correction_per_step(monkeypatch):
    calls = []
    real_correction = cli.floer_correction

    def counting_correction(cc):
        calls.append(cc)
        return real_correction(cc)

    monkeypatch.setattr(cli, "floer_correction", counting_correction)
    assert run(RunConfig("floer_sim", seed=7, moves=40), io.StringIO()) == 0
    assert len(calls) == 40 + 1


def test_floer_sim_seed_changes_output():
    _, out7 = run_cli(["floer-sim", "--seed", "7", "--moves", "30"])
    _, out8 = run_cli(["floer-sim", "--seed", "8", "--moves", "30"])
    assert out7 != out8


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["invariants", "--q", "3"])  # missing --K-range
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["invariants", "--q", "4", "--K-range", "1..2"])  # even q
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["rho", "--q", "3", "--K", "0"])  # K range excludes 0
    assert exc.value.code == 2
    for args in (
        ["rho", "--q", "3", "--K", "1", "--path", "lattice"],
        ["fit", "--q", "3", "--sign", "+", "--degree", "2", "--samples", "2"],
        ["fit", "--q", "3", "--sign", "+", "--degree", "-1", "--samples", "2"],
        ["fit", "--q", "5,3", "--sign", "+", "--degree", "2", "--samples", "5"],
        ["conjecture", "--samples", "2"],
        ["floer-sim", "--max-dim", "-1"],
        ["floer-sim", "--max-dim", str(MAX_DIM + 1)],
        ["floer-sim", "--moves", "-3"],
        ["floer-sim", "--moves", str(MAX_MOVES + 1)],
        ["table", "-v"],
        ["table", "--q", ","],
        ["conjecture", "--q-list", ","],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2, args


def test_config_in_code_matches_command_line():
    for config, args in (
        (RunConfig("floer_sim"), ["floer-sim"]),
        (RunConfig("conjecture", q_list=(3,)), ["conjecture", "--q-list", "3"]),
        (RunConfig("table"), ["table"]),
        (RunConfig("conjecture"), ["conjecture"]),
        (RunConfig("rho", q_list=(5,), k_list=(-1, 1, 2), per_connection=True),
         ["rho", "--q", "5", "--K", "-1..2", "--per-connection"]),
        (RunConfig("fit", q_list=(5,), sign="-", degree=2),
         ["fit", "--q", "5", "--sign", "-", "--degree", "2", "--samples", "5"]),
    ):
        out = io.StringIO()
        assert run(config, out) == 0
        assert run_cli(args) == (0, out.getvalue()), args
    # a misspelt option is refused, never replaced by its default
    with pytest.raises(TypeError):
        RunConfig("floer_sim", sed=3)
    for subcommand, fields in (("reps", {}), ("rho", {"q_list": (3,)}),
                               ("invariants", {"k_list": (1,)}),
                               ("fit", {"q_list": (3,), "degree": 2}),
                               ("fit", {"q_list": (3,), "sign": "+"}),
                               ("fit", {"q_list": (5,), "sign": "+", "degree": 4,
                                        "target": "b"}),
                               ("rho", {"q_list": (5,), "k_list": (1,), "path": "bogus"}),
                               ("floer_sim", {"max_dim": MAX_DIM + 1}),
                               ("floer_sim", {"moves": MAX_MOVES + 1})):
        with pytest.raises(ValueError):
            RunConfig(subcommand, **fields)


def test_computation_error_exit_1():
    code, _ = run_cli(["invariants", "--q", "11", "--K-range", "1..1"])
    assert code == 1


def test_connection_budget_exit_1(capsys):
    # 2.55e8 connections: refused before any is built
    code, out = run_cli(["reps", "--q", "101", "--K", "100000"])
    assert (code, out) == (1, "")
    assert "budget" in capsys.readouterr().err


def test_request_budget_exit_1(capsys, monkeypatch):
    # 13 cells of at most 33 150 connections each, 232 050 in all
    code, out = run_cli(["reps", "--q", "101", "--K", "1..13"])
    assert (code, out) == (1, "")
    assert "232050 flat connections" in capsys.readouterr().err
    monkeypatch.setattr(flat_moduli, "MAX_CONNECTIONS", 10)
    for args in (["reps", "--q", "3", "--K", "-2..3"],
                 ["rho", "--q", "3", "--K", "-2..3", "--per-connection"]):
        assert run_cli(args) == (1, "")
        assert "budget is 10" in capsys.readouterr().err
    assert run_cli(["reps", "--q", "3", "--K", "-1..2"])[0] == 0  # 8 connections


def test_console_entry_point():
    src = os.path.dirname(os.path.dirname(casson3.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "casson3.cli", "reps", "--q", "3", "--K", "-1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "q,K,L1,L2,L3,t,e"
