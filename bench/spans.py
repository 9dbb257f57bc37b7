"""Span recorder for the traced run.

Every layer is timed from outside the program: a public function is rebound,
in every `casson3` module that holds it, to a wrapper that records a span
(name, start, end, parent) and the counts observed at that boundary.  Methods
are rebound on their class.  Spans stay in compact arrays in memory and are
written out once the pass has ended; self time is a span's duration minus
the durations of its direct children.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

import numpy as np

# (module, function) pairs timed as spans; method spans are listed separately
# because they are rebound on the class, under the name given here.
SPAN_FUNCTIONS = (
    ("flat_moduli", "enumerate_connections"),
    ("_kernels", "cot_sum"),
    ("dedekind", "cot_sum_exact"),
    ("dedekind", "rho_adjoint"),
    ("dedekind", "snap_rho"),
    ("dedekind", "c_correction"),
    ("floer", "build_floer_complex"),
    ("floer", "r_invariant"),
    ("floer", "apply_move"),
    ("floer", "floer_correction"),
    ("floer", "homology_ranks"),
    ("floer", "random_complex"),
    ("floer", "random_move"),
    ("assembly", "assemble"),
    ("cli", "run"),
)
SPAN_METHODS = (
    # the d.d = 0 check runs in the constructor of every complex
    ("floer", "Z2ChainComplex", "__post_init__", "floer.Z2ChainComplex.check"),
    ("floer", "GF2Matrix", "mul", "floer.GF2Matrix.mul"),
    ("floer", "GF2Matrix", "rank", "floer.GF2Matrix.rank"),
)


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.margin_max = 0.0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        open_spans = self._open
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                open_spans.pop()
                self.counts[name + ".raised"] += 1
                raise
            end[idx] = clock()
            open_spans.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "casson3" and not mod_name.startswith("casson3."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def __enter__(self):
        from casson3 import dedekind, flat_moduli

        observers = {
            "flat_moduli.enumerate_connections": self._saw_connections,
            "kernels.cot_sum": self._saw_cot_sum,
            "dedekind.rho_adjoint": self._saw_rho,
            "floer.apply_move": self._saw_move,
        }
        exact = dedekind.cot_sum_exact
        for mod_name, fn_name in SPAN_FUNCTIONS:
            original = getattr(importlib.import_module(f"casson3.{mod_name}"), fn_name)
            name = f"{mod_name.lstrip('_')}.{fn_name}"  # metric names start with a letter
            if original is exact:
                wrapper = self._span(name, self._exact_counter(exact))
            else:
                wrapper = self._span(name, original, observers.get(name))
            self._rebind_everywhere(original, wrapper)
        for mod_name, cls_name, attr, name in SPAN_METHODS:
            cls = getattr(importlib.import_module(f"casson3.{mod_name}"), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._span(name, original))
        admissible = flat_moduli.is_admissible
        self._rebind_everywhere(admissible, self._admissible_counter(admissible))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- counts observed at the boundaries ------------------------------------

    def _saw_connections(self, args, result) -> None:
        self.counts["flat_moduli.connections"] += len(result)

    def _saw_cot_sum(self, args, result) -> None:
        self.counts["kernels.cot_sum.terms"] += args[2] - 1

    def _saw_rho(self, args, result) -> None:
        resid = abs(result.exact - Fraction(result.float_check.value))
        margin = float(resid / Fraction(result.float_check.error_bound))
        self.margin_max = max(self.margin_max, margin)

    def _saw_move(self, args, result) -> None:
        self.counts[f"floer.moves.{args[1].kind}"] += 1

    def _exact_counter(self, cached):
        counts = self.counts

        def counted(A, e, n):
            misses = cached.cache_info().misses
            value = cached(A, e, n)
            if cached.cache_info().misses != misses:
                counts["dedekind.cot_sum_exact.misses"] += 1
                counts["dedekind.cot_sum_exact.terms"] += 3 * n
            return value

        return counted

    def _admissible_counter(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            ok = fn(*args, **kwargs)
            counts["flat_moduli.is_admissible.calls"] += 1
            counts["flat_moduli.is_admissible.admitted"] += bool(ok)
            return ok

        return counted

    # -- results ------------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, dict], float]:
        """Per span name: calls, total (inclusive) and self seconds; plus the
        summed duration of the root spans."""
        names = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        out = {self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                               "self_s": float(own[i])}
               for i in range(k)}
        return out, float(dur[~nested].sum())

    def write(self, path: str) -> None:
        """Write every span of the pass as arrays in a compressed .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.uint16),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def layer_metrics(tracer: Tracer, pass_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass that took pass_s seconds."""
    times, root_s = tracer.layer_times()
    counts = tracer.counts

    def calls(name):
        return times[name]["calls"]

    def self_s(name):
        return times[name]["self_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    exact_calls = calls("dedekind.cot_sum_exact")
    exact_misses = counts["dedekind.cot_sum_exact.misses"]
    admissible = counts["flat_moduli.is_admissible.calls"]
    m = {
        "flat_moduli.enumerate_connections.calls": calls("flat_moduli.enumerate_connections"),
        "flat_moduli.enumerate_connections.self_s": self_s("flat_moduli.enumerate_connections"),
        "flat_moduli.is_admissible.calls": admissible,
        "flat_moduli.connections": counts["flat_moduli.connections"],
        "flat_moduli.admit_ratio": ratio(counts["flat_moduli.is_admissible.admitted"], admissible),
        "kernels.cot_sum.calls": calls("kernels.cot_sum"),
        "kernels.cot_sum.self_s": self_s("kernels.cot_sum"),
        "kernels.cot_sum.terms": counts["kernels.cot_sum.terms"],
        "dedekind.cot_sum_exact.calls": exact_calls,
        "dedekind.cot_sum_exact.misses": exact_misses,
        "dedekind.cot_sum_exact.hit_ratio": ratio(exact_calls - exact_misses, exact_calls),
        "dedekind.cot_sum_exact.self_s": self_s("dedekind.cot_sum_exact"),
        "dedekind.cot_sum_exact.terms": counts["dedekind.cot_sum_exact.terms"],
        "dedekind.rho_adjoint.calls": calls("dedekind.rho_adjoint"),
        "dedekind.rho_adjoint.self_s": self_s("dedekind.rho_adjoint"),
        "dedekind.snap_rho.calls": calls("dedekind.snap_rho"),
        "dedekind.snap_rho.escalations": counts["dedekind.snap_rho.raised"],
        "dedekind.c_correction.calls": calls("dedekind.c_correction"),
        "dedekind.c_correction.self_s": self_s("dedekind.c_correction"),
        "dedekind.float_margin_max": tracer.margin_max,
        "floer.build_floer_complex.calls": calls("floer.build_floer_complex"),
        "floer.build_floer_complex.self_s": self_s("floer.build_floer_complex"),
        "floer.r_invariant.calls": calls("floer.r_invariant"),
        "floer.r_invariant.self_s": self_s("floer.r_invariant"),
        "floer.apply_move.calls": calls("floer.apply_move"),
        "floer.apply_move.self_s": self_s("floer.apply_move"),
        "floer.Z2ChainComplex.check.calls": calls("floer.Z2ChainComplex.check"),
        "floer.Z2ChainComplex.check.self_s": self_s("floer.Z2ChainComplex.check"),
        "floer.GF2Matrix.mul.calls": calls("floer.GF2Matrix.mul"),
        "floer.GF2Matrix.rank.calls": calls("floer.GF2Matrix.rank"),
        "floer.GF2Matrix.rank.self_s": self_s("floer.GF2Matrix.rank"),
        "floer.floer_correction.self_s": self_s("floer.floer_correction"),
        "floer.homology_ranks.self_s": self_s("floer.homology_ranks"),
        "floer.random_complex.self_s": self_s("floer.random_complex"),
        "floer.random_move.self_s": self_s("floer.random_move"),
        # cost split of the move calculus, as shares of the traced pass: the
        # d.d check with the products it makes, against rank()
        "floer.dd_check_share": ratio(times["floer.Z2ChainComplex.check"]["total_s"], pass_s),
        "floer.rank_share": ratio(times["floer.GF2Matrix.rank"]["total_s"], pass_s),
        "assembly.assemble.calls": calls("assembly.assemble"),
        "assembly.assemble.self_s": self_s("assembly.assemble"),
        "cli.run.self_s": self_s("cli.run"),
        "trace.unattributed_s": max(0.0, pass_s - root_s),
    }
    for kind in ("isotopy", "handle_slide", "birth", "death"):
        m[f"floer.moves.{kind}"] = counts[f"floer.moves.{kind}"]
    return m
