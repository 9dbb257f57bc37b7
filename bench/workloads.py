"""Workload inputs, generated from the benchmark seed.

A run is a sequence of passes; each pass runs in a fresh process and gets
one input from `pass_inputs`.  The same seed gives the same sequence.  The
program itself only ever sees the cells or the fuzz seed of a pass.

* table-grid: all 96 cells q in {3,5,7,9} x K in [-12, 12] \\ {0}, in an
  order the seed shuffles anew for every pass.  Many small cells, so
  per-call overhead (enumeration, float kernel, snapping, the second exact
  aggregate) dominates.
* table-deep: four large cells per pass, two at q = 7 and two at q = 9, with
  |K| = 70 - d and 70 + d for a seeded d in [0, 10] and seeded signs.  The
  mirrored pair keeps the work of every pass close to equal (cost grows
  about as K^2), so ops_per_s does not depend on the seed.  a3 reaches about
  1,400 and the O(n) exact convolution dominates.  q stays <= 9 so that
  every cell is checked against the closed forms.
* move-fuzz: 3,000 random complexes per pass, each put through 3 to 6 random
  moves; the pass seed is drawn from the benchmark seed.
"""
from __future__ import annotations

from random import Random
from typing import Iterator

WORKLOADS = ("table-grid", "table-deep", "move-fuzz")

GRID_CELLS = tuple((q, K) for q in (3, 5, 7, 9) for K in range(-12, 13) if K != 0)
DEEP_CENTRE = 70
DEEP_HALF_WIDTH = 10
FUZZ_SEQUENCES = 3000


def _deep_cells(rng: Random) -> list[tuple[int, int]]:
    cells = []
    for q in (7, 9):
        d = rng.randint(0, DEEP_HALF_WIDTH)
        for k in (DEEP_CENTRE - d, DEEP_CENTRE + d):
            cells.append((q, rng.choice((1, -1)) * k))
    rng.shuffle(cells)
    return cells


def pass_inputs(workload: str, seed: int) -> Iterator[dict]:
    """Endless sequence of pass inputs for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = Random(f"{workload}/{seed}")
    while True:
        if workload == "table-grid":
            cells = list(GRID_CELLS)
            rng.shuffle(cells)
            yield {"cells": cells}
        elif workload == "table-deep":
            yield {"cells": _deep_cells(rng)}
        else:
            yield {"fuzz_seed": rng.getrandbits(64), "sequences": FUZZ_SEQUENCES}


def ops_in(inp: dict) -> int:
    """Lower bound on the ops of a pass, counted as failed if the pass dies."""
    return len(inp["cells"]) if "cells" in inp else inp["sequences"] * 3
