"""One benchmark process: set up casson3, then run one pass and check it.

    python3 bench/worker.py setup|pass|trace|sweep --workload NAME < input.json

The runner starts this script once per pass, so every pass runs in a fresh
interpreter with cold caches, as a user's invocation does.  It prints one
JSON line as soon as set-up (interpreter start, `import casson3` and
`verify_convention()`) is done, and one JSON line with the pass result.

Modes: `setup` stops after set-up; `pass` runs the pass untraced; `trace`
runs it with every layer wrapped in spans; `sweep` times the three
cotangent-sum kernels on their own.

On a shared machine the speed of the core drifts by a third and more over
seconds.  A short fixed loop is therefore timed between chunks of work (one
table cell, or FUZZ_CHUNK fuzz sequences), and each chunk's time is also
reported rescaled to the speed at which that loop takes REF_LOOP_S.  (The
runner rescales set-up time in its own way.)
"""
import io
import json
import os
import statistics
import sys
import time
from random import Random

from check import cell_problems, move_problems

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Time of reference_loop() at the reference speed: about its median on the
# 2-core Xeon VM the benchmark was defined on, where it ranged 250-400 us.
REF_LOOP_S = 300e-6
FUZZ_CHUNK = 25


def reference_loop() -> float:
    """Seconds taken by a fixed integer loop.  It creates no object that the
    garbage collector tracks, so the program's heap cannot change its time."""
    t0 = time.perf_counter()
    s = 0
    for i in range(4000):
        s += i * i % 7
    return time.perf_counter() - t0


class Stopwatch:
    """Pass time, raw and rescaled: each chunk of work between two laps is
    scaled by REF_LOOP_S over the mean of the reference loops around it."""

    def __init__(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._ref = reference_loop()
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        dt = time.perf_counter() - self._t0
        ref = reference_loop()
        self.raw_s += dt
        self.scaled_s += dt * REF_LOOP_S / ((self._ref + ref) / 2)
        self._ref = ref
        self._t0 = time.perf_counter()


def set_up() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import casson3  # noqa: F401  (pulls in numpy)
    from casson3 import cli, dedekind, floer  # noqa: F401
    t1 = time.perf_counter()
    dedekind.verify_convention()
    t2 = time.perf_counter()
    # CLOCK_MONOTONIC is system-wide on Linux, so the runner can subtract its
    # own launch stamp from this one.
    return {"ready_at": time.monotonic(), "import_s": t1 - t0, "verify_convention_s": t2 - t1}


def run_tables(cells, watch: Stopwatch) -> tuple[int, int, list[str]]:
    """One `table` call per cell, in the given order, each output checked."""
    from casson3 import cli

    failed, problems = 0, []
    for q, K in cells:
        out = io.StringIO()
        try:
            cli.run(cli.RunConfig("table", q_list=(q,), k_list=(K,), fmt="json"), out)
            bad = cell_problems(q, K, out.getvalue())
        except Exception as exc:  # a raising cell is a failed op, the pass goes on
            bad = [f"({q},{K}): raised {type(exc).__name__}: {exc}"]
        watch.lap()
        if bad:
            failed += 1
            problems.extend(bad)
    return len(cells), failed, problems


def run_fuzz(fuzz_seed: int, sequences: int, watch: Stopwatch) -> tuple[int, int, list[str]]:
    """The move-calculus fuzz: random complexes, 3 to 6 random moves each,
    every move checked against the move laws."""
    from casson3 import floer

    rng = Random(fuzz_seed)
    ops = failed = 0
    problems: list[str] = []
    for i in range(1, sequences + 1):
        if i % FUZZ_CHUNK == 0:
            watch.lap()
        try:
            cc = floer.random_complex(rng, 6)
            start = floer.homology_ranks(cc)
            corr = floer.floer_correction(cc)
        except Exception as exc:
            ops += 1
            failed += 1
            problems.append(f"random_complex raised {type(exc).__name__}: {exc}")
            continue
        for _ in range(rng.randint(3, 6)):
            ops += 1
            try:
                mv = floer.random_move(rng, cc)
                cc = floer.apply_move(cc, mv)
                new_corr = floer.floer_correction(cc)
                bad = move_problems(mv.kind, mv.p, corr, new_corr, start,
                                    floer.homology_ranks(cc))
            except Exception as exc:
                failed += 1
                problems.append(f"move raised {type(exc).__name__}: {exc}")
                break
            if bad:
                failed += 1
                problems.extend(bad)
            corr = new_corr
    watch.lap()
    return ops, failed, problems


def run_pass(inp: dict, result: dict) -> list[str]:
    """Run one pass into result (ops, failed, raw and rescaled seconds)."""
    watch = Stopwatch()
    if "cells" in inp:
        outcome = run_tables([tuple(c) for c in inp["cells"]], watch)
    else:
        outcome = run_fuzz(inp["fuzz_seed"], inp["sequences"], watch)
    result["ops"], result["failed"], problems = outcome
    result["pass_s"], result["scaled_s"] = watch.raw_s, watch.scaled_s
    return problems


def kernel_sweep(seed: int) -> tuple[dict, int, int, list[str]]:
    """Median time of each cotangent-sum kernel at n = 10^2, 10^3, 10^4 on a
    seeded (A, e) with A coprime to n, caches cleared before every call; the
    three values must agree (the float one within its own error bound)."""
    import math
    from fractions import Fraction

    from casson3 import _kernels, dedekind

    kernels = {
        "cot_sum_exact": dedekind.cot_sum_exact,
        "cot_sum_lattice": dedekind.cot_sum_lattice,
        "cot_sum_numpy": _kernels.cot_sum_numpy,
    }
    rng = Random(f"kernel-sweep/{seed}")
    metrics, failed, problems = {}, 0, []
    for n in (100, 1000, 10000):
        A = rng.randrange(1, n)
        while math.gcd(A, n) != 1:
            A = rng.randrange(1, n)
        e = rng.randrange(1, n)
        values = {}
        for name, fn in kernels.items():
            times = []
            for _ in range(7):
                dedekind.cot_sum_exact.cache_clear()
                dedekind.cot_sum_lattice.cache_clear()
                t0 = time.perf_counter()
                values[name] = fn(A, e, n)
                times.append(time.perf_counter() - t0)
            metrics[f"kernel.{name}.n{n}_us"] = statistics.median(times) * 1e6
        exact, lattice = values["cot_sum_exact"], values["cot_sum_lattice"]
        approx, bound = values["cot_sum_numpy"]
        if exact != lattice or abs(exact - Fraction(approx)) > Fraction(bound):
            failed += 1
            problems.append(f"kernels disagree at (A={A}, e={e}, n={n}): exact {exact}, "
                            f"lattice {lattice}, numpy {approx!r} +- {bound!r}")
    return metrics, 3, failed, problems


def environment() -> dict:
    import platform

    import numpy

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "CASSON3_BACKEND": os.environ.get("CASSON3_BACKEND"),
        "CASSON3_THREADS": os.environ.get("CASSON3_THREADS"),
    }


def main(argv) -> int:
    mode, workload = argv[0], argv[argv.index("--workload") + 1]
    for var in ("CASSON3_BACKEND", "CASSON3_THREADS"):
        if var in os.environ:
            print(f"worker: {var} must be unset, the benchmark measures the defaults",
                  file=sys.stderr)
            return 2
    print(json.dumps(set_up()), flush=True)
    if mode == "setup":
        return 0
    inp = json.loads(sys.stdin.read())
    result: dict = {"env": environment()}
    if mode == "sweep":
        result["layers"], result["ops"], result["failed"], problems = kernel_sweep(inp["seed"])
    elif mode == "pass":
        problems = run_pass(inp, result)
    else:
        from spans import Tracer, layer_metrics

        with Tracer() as tracer:
            problems = run_pass(inp, result)
        result["layers"] = layer_metrics(tracer, result["pass_s"])
        tracer.write(os.path.join(ROOT, ".bench_trace", f"{workload}.npz"))
    import resource

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["problems"] = problems[:10]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
