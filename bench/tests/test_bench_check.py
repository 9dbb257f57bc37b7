"""The benchmark's output checker: correct outputs pass, and a tampered table
row or a wrong move delta counts as a failure whatever the CLI's own status
column says."""
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from casson3 import cli  # noqa: E402

from check import cell_problems, closed_forms, move_problems  # noqa: E402

CELLS = [(q, K) for q in (3, 5, 7, 9) for K in (-2, -1, 1, 2)]


def table_output(q, K):
    out = io.StringIO()
    cli.run(cli.RunConfig("table", q_list=(q,), k_list=(K,), fmt="json"), out)
    return out.getvalue()


def tamper(text, **fields):
    payload = json.loads(text)
    payload["rows"][0].update(fields)
    return json.dumps(payload)


@pytest.mark.parametrize("q,K", CELLS)
def test_program_output_passes(q, K):
    assert cell_problems(q, K, table_output(q, K)) == []


def test_closed_forms_hit_the_anchors():
    plus, minus = closed_forms(3, 1), closed_forms(3, -1)
    assert plus["Lambda"] == plus["A"] + plus["B"] + plus["C"] == Fraction(1, 4)
    assert (plus["C"], minus["C"]) == (Fraction(17, 12), Fraction(-41, 84))
    assert closed_forms(5, 1)["Lambda"] == Fraction(47, 4)


def test_tampered_lambda_fails_despite_match_status():
    text = table_output(5, 2)
    lam = closed_forms(5, 2)["Lambda"]
    bad = tamper(text, Lambda_computed=str(lam + 1), Lambda_reference=str(lam + 1),
                 status="MATCH")
    problems = cell_problems(5, 2, bad)
    assert any("Lambda" in p for p in problems)
    assert any("D =" in p for p in problems)


def test_tampered_c_fails():
    text = table_output(7, -1)
    c = closed_forms(7, -1)["C"]
    problems = cell_problems(7, -1, tamper(text, C_computed=str(c + 1), status="MATCH"))
    assert any(p.startswith("(7,-1): C ") for p in problems)


def test_non_integral_four_lambda_fails():
    text = table_output(3, 1)
    lam = closed_forms(3, 1)["Lambda"]
    problems = cell_problems(3, 1, tamper(text, Lambda_computed=f"{lam * 8 + 1}/8"))
    assert any("not an integer" in p for p in problems)


@pytest.mark.parametrize("text", ["", "{}", '{"rows": []}', '{"rows": [{"q": "3"}]}'])
def test_unreadable_output_fails(text):
    assert cell_problems(3, 1, text)


def test_row_for_another_cell_fails():
    assert cell_problems(3, 2, table_output(3, 1))


@pytest.mark.parametrize("kind,p,delta", [
    ("isotopy", 0, 0), ("handle_slide", 3, 0),
    ("birth", 2, 1), ("birth", 5, -1), ("death", 2, -1), ("death", 5, 1),
])
def test_move_law_holds(kind, p, delta):
    ranks = (1, 0, 2, 0, 0, 1, 0, 0)
    assert move_problems(kind, p, 4, 4 + delta, ranks, ranks) == []


@pytest.mark.parametrize("kind,p,delta", [
    ("isotopy", 0, 1), ("handle_slide", 3, -1), ("birth", 2, -1), ("death", 5, -1),
])
def test_wrong_move_delta_fails(kind, p, delta):
    ranks = (1, 0, 2, 0, 0, 1, 0, 0)
    assert move_problems(kind, p, 4, 4 + delta, ranks, ranks)


def test_changed_homology_fails():
    assert move_problems("isotopy", 0, 0, 0, (1,) + (0,) * 7, (0,) * 8)


def test_unknown_move_kind_fails():
    assert move_problems("teleport", 0, 0, 0, (0,) * 8, (0,) * 8)
