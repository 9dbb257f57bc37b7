"""The span recorder: it sees calls made through every module that imported a
layer function, computes self time from the span tree, and puts every
original back when it exits."""
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from casson3 import assembly, cli, dedekind, flat_moduli, floer  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402


def test_table_cell_is_traced_and_originals_restored():
    originals = (cli.run, assembly.c_correction, dedekind.enumerate_connections,
                 dedekind.cot_sum_exact, flat_moduli.is_admissible,
                 floer.Z2ChainComplex.__dict__["__post_init__"])
    with Tracer() as tracer:
        cli.run(cli.RunConfig("table", q_list=(3,), k_list=(2,), fmt="json"), io.StringIO())
    assert (cli.run, assembly.c_correction, dedekind.enumerate_connections,
            dedekind.cot_sum_exact, flat_moduli.is_admissible,
            floer.Z2ChainComplex.__dict__["__post_init__"]) == originals

    m = layer_metrics(tracer, 1.0)
    # the default path enumerates three times per cell: float and exact
    # aggregates, then the Floer gradings
    assert m["flat_moduli.enumerate_connections.calls"] == 3
    assert m["flat_moduli.connections"] == 3 * 4  # (q^2 - 1) k / 4 per enumeration
    assert m["dedekind.c_correction.calls"] == m["assembly.assemble.calls"] == 1
    assert m["dedekind.rho_adjoint.calls"] == 2 * 4
    assert m["kernels.cot_sum.calls"] == 3 * m["dedekind.rho_adjoint.calls"]
    assert m["floer.build_floer_complex.calls"] == 1
    assert m["floer.Z2ChainComplex.check.calls"] == 1
    assert m["floer.GF2Matrix.mul.calls"] == 8
    assert 0 < m["flat_moduli.admit_ratio"] < 1
    assert 0 <= m["dedekind.float_margin_max"] < 1

    times, root_s = tracer.layer_times()
    assert times["cli.run"]["calls"] == 1
    assert root_s == times["cli.run"]["total_s"]
    total_self = sum(t["self_s"] for t in times.values())
    assert abs(total_self - root_s) < 1e-9


def test_moves_are_counted_by_kind():
    from random import Random

    rng = Random(3)
    with Tracer() as tracer:
        cc = floer.random_complex(rng, 4)
        for _ in range(20):
            cc = floer.apply_move(cc, floer.random_move(rng, cc))
    m = layer_metrics(tracer, 1.0)
    kinds = ("isotopy", "handle_slide", "birth", "death")
    assert sum(m[f"floer.moves.{k}"] for k in kinds) == m["floer.apply_move.calls"] == 20
    assert m["kernels.cot_sum.calls"] == m["dedekind.cot_sum_exact.calls"] == 0
