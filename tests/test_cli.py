import ast
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

import casson3
from casson3 import cli, dedekind, flat_moduli
from casson3.assembly import _TABLE, reference_C
from casson3.cli import RunConfig, main, run
from casson3.errors import ConventionMismatch
from casson3.floer import MAX_DIM, MAX_MOVES, random_complex
from casson3.seifert import from_surgery


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


def run_traced(args):
    """(exit code, stdout, tracemalloc peak) of main(args); a usage error
    exits 2 with no stdout."""
    tracemalloc.start()
    try:
        try:
            code, out = run_cli(args)
        except SystemExit as exc:
            code, out = exc.code, ""
        return code, out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child_env():
    """This environment, with this casson3 first on the child's path."""
    src = os.path.dirname(os.path.dirname(casson3.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_subprocess(args):
    """`python -m casson3.cli *args` in a child process, with this casson3 on its path."""
    return subprocess.run([sys.executable, "-m", "casson3.cli", *args], capture_output=True,
                          text=True, env=child_env())


def test_reps_csv_q3():
    code, out = run_cli(["reps", "--q", "3", "--K", "1"])
    assert code == 0
    assert out == "q,K,L1,L2,L3,t,e\n3,1,1,1,1,1,31\n3,1,1,1,3,2,43\n"


def test_reps_deterministic():
    args = ["reps", "--q", "3,5", "--K", "-2..2"]
    assert run_cli(args) == run_cli(args)


def test_rho_aggregate_and_per_connection():
    code, out = run_cli(["rho", "--q", "3", "--K", "1"])
    assert code == 0
    assert out.splitlines()[1] == "3,1,17/12"
    code, out = run_cli(["rho", "--q", "3", "--K", "1", "--per-connection",
                         "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "casson3/1"
    assert [row["rho"] for row in payload["rows"]] == ["73/15", "97/15"]


def test_c_refuses_a_float_aggregate_that_disagrees(monkeypatch):
    # a wrong numerator from `snap_rho` stops C, and `table` with it,
    # instead of reaching the output
    with monkeypatch.context() as m:
        m.setattr(dedekind, "snap_rho", lambda estimate, D: 0)
        with pytest.raises(ConventionMismatch):
            dedekind.c_correction(from_surgery(3, 1))
        assert run_cli(["table", "--q", "3", "--K-range", "1..1"]) == (1, "")
    # the two aggregates are compared as well: a float aggregate off by one
    # is refused even where every rho in it passed its own cross-check
    aggregate = dedekind._aggregate
    monkeypatch.setattr(dedekind, "_aggregate",
                        lambda X, path: aggregate(X, path) + (path == "float"))
    with pytest.raises(ConventionMismatch, match="disagrees with integer aggregate"):
        dedekind.c_correction(from_surgery(3, 1))


def test_per_connection_rho_comes_from_the_integer_kernel(monkeypatch):
    # a wrong numerator from snapping never reaches the printed rho
    monkeypatch.setattr(dedekind, "snap_rho", lambda estimate, D: 0)
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
    # the degree is the least that fits, and every sample beyond it is checked
    for sign, samples, coefficients in (("-", "5", ["0", "-85/4", "63/2"]),
                                        ("+", "6", ["0", "-79/4", "63/2"])):
        code, out = run_cli(["fit", "--q", "5", "--sign", sign, "--samples", samples])
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients_low_to_high"] == coefficients
        assert (payload["degree"], payload["checked_points"]) == (2, int(samples) - 3)


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
                             "--samples", "6"])
        assert code == 0
        payload = json.loads(out)
        assert payload["cleared_by"] == "4q(2qK-1)"
        assert payload["coefficients_low_to_high"] == [str(c) for c in num]


def test_unchecked_fit_is_computation_error(capsys):
    # a cubic through 4 samples, or a quadratic through 2 or 3, leaves no
    # sample to check the fit
    for args in (["fit", "--q", "5", "--sign", "+", "--target", "C", "--samples", "4"],
                 ["conjecture", "--q-list", "3", "--samples", "3"],
                 ["conjecture", "--samples", "2"]):
        assert run_cli(args) == (1, ""), args
        assert "none checks a fit" in capsys.readouterr().err, args


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


def test_usage_errors_exit_2(capsys):
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
        ["rho", "--q", "3", "--K", "1", "--path", "exact"],
        ["invariants", "--q", "3", "--K-range", "1..1", "--path", "exact"],
        ["table", "--path", "exact"],
        ["fit", "--q", "3", "--sign", "+", "--samples", "3", "--path", "exact"],
        ["conjecture", "--path", "exact"],
        ["fit", "--q", "3", "--sign", "+", "--degree", "2"],
        ["fit", "--q", "3", "--sign", "+", "--samples", "1"],
        ["fit", "--q", "5,3", "--sign", "+", "--samples", "5"],
        ["conjecture", "--samples", "1"],
        ["floer-sim", "--max-dim", "-1"],
        ["floer-sim", "--max-dim", str(MAX_DIM + 1)],
        ["floer-sim", "--moves", "-3"],
        ["floer-sim", "--moves", str(MAX_MOVES + 1)],
        ["table", "-v"],
        ["table", "--q", ","],
        ["conjecture", "--q-list", ","],
        # omissions that only RunConfig refuses
        ["reps", "--q", "3"],
        ["fit", "--q", "5"],
        ["fit", "--sign", "+"],
        # a repeated q would print its rows twice
        ["reps", "--q", "3,3", "--K", "1"],
        ["fit", "--q", "5,5", "--sign", "+"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2, args
    assert "q 5 is given more than once" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run_cli(["rho", "--q", ",", "--K", "1"])
    assert "argument --q" in capsys.readouterr().err
    # a K or q text that is not integers is refused by the option's own type
    for args, message in (
        (["rho", "--q", "3", "--K", "1..x"], "K '1..x' is not an integer or a..b"),
        (["rho", "--q", "3,x", "--K", "1"], "q list '3,x' is not integers"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2, args
        assert message in capsys.readouterr().err, args
    # a RunConfig refusal is reported under the subcommand's usage line
    with pytest.raises(SystemExit) as exc:
        run_cli(["reps", "--q", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: casson3 reps ")
    assert err.endswith("casson3 reps: error: reps needs q and K\n")


def test_k_beyond_every_budget_exit_2(capsys):
    # over the connection budget at every q, so refused as usage before any K
    # is built: 1..100000000 as a tuple needs about 4 GB
    for args in (["table", "--K-range", "1..100000000"],
                 ["reps", "--q", "3", "--K", "100001"],
                 ["rho", "--q", "3", "--K", "-100001..1"],
                 ["fit", "--q", "3", "--sign", "+", "--target", "A", "--samples", "100001"],
                 ["conjecture", "--samples", "100001"]):
        code, out, peak = run_traced(args)
        assert (code, out) == (2, ""), args
        assert peak < 5_000_000, args
        assert "|K| > 100000" in capsys.readouterr().err, args


def test_config_in_code_matches_command_line():
    for config, args in (
        (RunConfig("floer_sim"), ["floer-sim"]),
        (RunConfig("conjecture", q_list=(3,)), ["conjecture", "--q-list", "3"]),
        (RunConfig("table"), ["table"]),
        (RunConfig("conjecture"), ["conjecture"]),
        (RunConfig("rho", q_list=(5,), k_list=(-1, 1, 2), per_connection=True),
         ["rho", "--q", "5", "--K", "-1..2", "--per-connection"]),
        (RunConfig("fit", q_list=(5,), sign="-"), ["fit", "--q", "5", "--sign", "-"]),
    ):
        out = io.StringIO()
        assert run(config, out) == 0
        assert run_cli(args) == (0, out.getvalue()), args
    # a misspelt or removed option is refused, never replaced by its default
    for subcommand, fields in (("floer_sim", {"sed": 3}),
                               ("rho", {"q_list": (5,), "k_list": (1,), "path": "exact"}),
                               ("fit", {"q_list": (5,), "sign": "+", "degree": 2})):
        with pytest.raises(TypeError):
            RunConfig(subcommand, **fields)
    for subcommand, fields in (("reps", {}), ("rho", {"q_list": (3,)}),
                               ("invariants", {"k_list": (1,)}),
                               ("fit", {"q_list": (3,)}),
                               ("fit", {"q_list": (5,), "sign": "+", "target": "b"}),
                               ("reps", {"q_list": (3, 3), "k_list": (1,)}),
                               ("rho", {"q_list": (3,), "k_list": (1, 1)}),
                               ("fit", {"q_list": (5, 5), "sign": "+"}),
                               ("floer_sim", {"max_dim": MAX_DIM + 1}),
                               ("floer_sim", {"moves": MAX_MOVES + 1}),
                               ("bogus", {}),
                               # a field no flag of the subcommand sets
                               ("reps", {"q_list": (3,), "k_list": (1,), "seed": 5}),
                               ("table", {"per_connection": True}),
                               # a format the subcommand does not print
                               ("fit", {"q_list": (5,), "sign": "+", "fmt": "csv"}),
                               # a K of 0, which the --K parser leaves out
                               ("rho", {"q_list": (3,), "k_list": (0, 1)})):
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
    # 600 000 connections in one sphere, with and without the per-connection rows
    for flags in ([], ["--per-connection"]):
        t0 = time.perf_counter()
        assert run_cli(["rho", "--q", "5", "--K", "-100000", *flags]) == (1, ""), flags
        assert time.perf_counter() - t0 < 1.0, flags
        assert "600000 flat connections" in capsys.readouterr().err
    # 18 258 connections on a3 = 54 773: C reads them off per-fiber tables
    # in about 0.5 s, so the sphere is admitted
    C = reference_C(3, 9129)
    assert run_cli(["rho", "--q", "3", "--K", "9129"]) == (0, f"q,K,C\n3,9129,{C}\n")


def test_request_budget_exit_1(capsys, monkeypatch):
    # 13 cells of at most 33 150 connections each, 232 050 in all
    code, out = run_cli(["reps", "--q", "101", "--K", "1..13"])
    assert (code, out) == (1, "")
    assert "232050 flat connections" in capsys.readouterr().err
    # every sphere is under the budget, but not their sum: refused whole,
    # before the first connection is enumerated
    monkeypatch.setattr(flat_moduli, "_enumerate", None)  # a call raises TypeError
    for args, total in ((["rho", "--q", "3", "--K", "1..500"], 250500),
                        (["table", "--q", "3", "--K-range", "1..500"], 250500),
                        (["conjecture", "--q-list", "9", "--samples", "100"], 202000),
                        (["fit", "--q", "3", "--sign", "+", "--target", "C",
                          "--samples", "500"], 250500)):
        t0 = time.perf_counter()
        code, out, peak = run_traced(args)
        assert (code, out) == (1, ""), args
        assert time.perf_counter() - t0 < 1.0, args
        assert peak < 5_000_000, args
        assert f"{total} flat connections" in capsys.readouterr().err, args
    # A and B read their stored forms and enumerate no connection, so 1 001 000
    # connections at 1000 samples do not stop them
    for target in ("A", "B"):
        assert run_cli(["fit", "--q", "3", "--sign", "+", "--target", target,
                        "--samples", "1000"])[0] == 0, target
    monkeypatch.undo()
    # 20 000 connections: within the budget
    assert run_cli(["reps", "--q", "3", "--K", "10000"])[0] == 0


@pytest.mark.parametrize("args", [
    ["reps", "--q", "3", "--K", "-2..3"],
    ["rho", "--q", "3", "--K", "-2..3"],
    ["rho", "--q", "3", "--K", "-2..3", "--per-connection"],
    ["invariants", "--q", "3", "--K-range", "-2..3"],
    ["table", "--q", "3", "--K-range", "-2..3"],
    ["conjecture", "--q-list", "3", "--samples", "3"],
    ["fit", "--q", "3", "--sign", "+", "--target", "C", "--samples", "4"],
    ["fit", "--q", "3", "--sign", "+", "--target", "Lambda", "--samples", "4"],
], ids=" ".join)
def test_every_cell_subcommand_is_refused_by_one_rule(args, capsys, monkeypatch):
    # each sphere has at most 10 connections, the request more than 10 in all
    monkeypatch.setattr(flat_moduli, "MAX_CONNECTIONS", 10)
    monkeypatch.setattr(flat_moduli, "_enumerate", None)  # a call raises TypeError
    assert run_cli(args) == (1, "")
    err = capsys.readouterr().err
    assert "requested spheres have" in err and "flat connections; the budget is 10" in err


@pytest.mark.slow
@pytest.mark.parametrize("args", [
    ["rho", "--q", "3", "--K", "-100000"],  # 200 000 connections, a3 = 600 001
    ["rho", "--q", "893", "--K", "1"],  # 199 362 connections
    ["invariants", "--q", "9", "--K-range", "10000..10000"],  # 200 000 connections
], ids=" ".join)
def test_requests_at_the_budget_stay_bounded(args):
    # each took 2.8-4.3 s on a 2-core x86 VM, with peaks of 188, 73 and 110 MB RSS
    t0 = time.perf_counter()
    proc = run_subprocess(args)
    assert time.perf_counter() - t0 < 60.0
    # the largest child so far; none of the others comes near this
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < 400 * 1024
    assert proc.returncode == 0, proc.stderr
    q, K = int(args[2]), int(args[4].partition("..")[0])
    assert f",{reference_C(q, K)}," in proc.stdout.replace("\n", ",")


def test_console_entry_point():
    proc = run_subprocess(["reps", "--q", "3", "--K", "-1"])
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "q,K,L1,L2,L3,t,e"


def test_light_modules_load_neither_numpy_nor_the_rho_layer():
    # the package root re-exports nothing, so these imports stop short of
    # numpy and of dedekind, whose import checks the calibration anchors.
    # Every invocation imports cli, which loads argparse only to build its
    # parser and knotpoly only for `conjecture`.  The gradings read the
    # per-fiber tables from the kernel seam `_kernels`, not from the rho layer.
    for modules, unwanted in (("casson3, casson3.seifert, casson3.flat_moduli, "
                               "casson3.polynomial, casson3.knotpoly",
                               {"numpy", "casson3.dedekind"}),
                              ("casson3.cli", {"argparse", "casson3.knotpoly"}),
                              ("casson3.floer", {"casson3.dedekind"})):
        code = (f"import sys, {modules}\n"
                f"loaded = {unwanted!r} & set(sys.modules)\n"
                "assert not loaded, sorted(loaded)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, (modules, proc.stderr)


def test_only_the_kernel_seam_imports_numpy():
    # every per-fiber table is built in `_kernels`; no other module needs numpy.
    # The enumeration must not load it either: `flat_moduli` imports neither
    # `_kernels` nor `dedekind` (which imports `flat_moduli`)
    package = os.path.dirname(casson3.__file__)
    importers, enumeration_imports = set(), set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    roots = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    # `from . import x` and `from .x import y` read casson3.x, casson3.x.y
                    base = ".".join(filter(None, ("casson3" if node.level else "", node.module)))
                    roots = [f"{base}.{alias.name}" for alias in node.names]
                else:
                    continue
                if any(root.partition(".")[0] == "numpy" for root in roots):
                    importers.add(name)
                if name == "flat_moduli.py":
                    enumeration_imports |= {root.split(".")[1] for root in roots
                                            if root.startswith("casson3.")}
    assert importers == {"_kernels.py"}
    assert enumeration_imports >= {"errors", "seifert"}
    assert not enumeration_imports & {"_kernels", "dedekind"}
