"""casson3 benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (table-grid, table-deep or move-fuzz; see workloads.py and
README.md) from the root of a source checkout.  Every pass is a fresh
`bench/worker.py` process with cold caches and with CASSON3_BACKEND and
CASSON3_THREADS unset, so it measures what a user's invocation gets.

With --trace 0 passes are repeated until S seconds have gone by (at least
three), and the end-to-end metrics are the medians over passes:

  setup_s        launch of the process until `import casson3` and
                 `verify_convention()` are done; median over every process
                 started in the run, topped up with set-up-only processes
  ops_per_s      checked ops per second of pass time (a table cell, or an
                 applied move)
  peak_rss_mb    ru_maxrss of the pass process
  verified_ratio ops that passed every check / ops attempted

Both times are rescaled against the drift of a shared machine: each set-up
time by REF_LAUNCH_S over the time of reference_launch() just before it,
and the pass time by the reference loop that worker.py times between chunks
of work.  The unscaled samples are printed with the environment.

With --trace 1 the same pass input is run alternately untraced and traced
until S seconds have gone by, then the kernel micro-sweep runs; the
per-layer metrics are medians over the traced passes.

The second-to-last line of output records the environment; the last line is
the result: {"correct", "attempted", "failed", "metrics"}, each metric with
the unit that BENCHMARK.json gives it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, ops_in, pass_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

TIME_LIMIT_S = 170  # the whole run must end within 180 s
MIN_PASSES = 3
SETUP_SAMPLES = 15
# Wall time of reference_launch() at the reference speed: about its median on
# the 2-core Xeon VM the benchmark was defined on, where it ranged 0.11-0.19 s.
REF_LAUNCH_S = 0.16


class SetupFailed(Exception):
    """A worker process died before casson3 was ready."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CASSON3_BACKEND", None)
    env.pop("CASSON3_THREADS", None)
    return env


def reference_launch(deadline: float) -> float:
    """Seconds to start an interpreter that imports numpy and exits: most of
    the work of casson3's set-up, with none of casson3 in it."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], env=_child_env(), cwd=ROOT,
                   capture_output=True, check=True, timeout=max(1.0, deadline - t0))
    return time.monotonic() - t0


def launch(mode: str, workload: str, payload, deadline: float):
    """Run one worker; return (setup info, pass result or None if it died)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, "--workload", workload],
            input=json.dumps(payload), capture_output=True, text=True,
            env=_child_env(), cwd=ROOT, timeout=max(1.0, deadline - t0),
        )
        out, err, status = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        err, status = f"timed out after {exc.timeout:.0f} s", None
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not lines or "ready_at" not in lines[0]:
        raise SetupFailed(f"worker {mode} did not get ready: {err.strip()[-2000:]}")
    setup = dict(lines[0], setup_s=lines[0]["ready_at"] - t0)
    result = lines[-1] if len(lines) > 1 and status == 0 else None
    return setup, result, err


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    """Counts and samples gathered over the worker processes of one run."""

    def __init__(self, workload: str, seconds: int):
        self.workload = workload
        self.seconds = seconds
        self.start = time.monotonic()
        self.deadline = self.start + TIME_LIMIT_S
        self.setups: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env: dict = {}
        self.longest = 0.0
        self.samples: dict[str, list[float]] = {}

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def want_pass(self, done: int) -> bool:
        if self.elapsed() < self.seconds:
            return True
        spare = self.deadline - time.monotonic() - 2 * self.longest
        return done < MIN_PASSES and spare > 0

    def worker(self, mode: str, payload, ops_if_lost: int = 0):
        ref_s = reference_launch(self.deadline)
        t0 = time.monotonic()
        setup, result, err = launch(mode, self.workload, payload, self.deadline)
        self.longest = max(self.longest, time.monotonic() - t0)
        self.setups.append(dict(setup, ref_s=ref_s))
        if mode == "setup":
            return None
        if result is None:
            self.attempted += ops_if_lost
            self.failed += ops_if_lost
            self.problems.append(f"{mode} worker died: {err.strip()[-500:]}")
            return None
        self.env = result["env"]
        self.attempted += result["ops"]
        self.failed += result["failed"]
        self.problems.extend(result["problems"])
        return result

    def top_up_setups(self) -> None:
        while len(self.setups) < SETUP_SAMPLES and time.monotonic() < self.deadline - 10:
            self.worker("setup", None)

    def setup_median(self, key: str) -> float:
        return statistics.median(s[key] for s in self.setups)


def end_to_end(run: Run, inputs) -> dict:
    rates, raw_rates, rss = [], [], []
    while run.want_pass(len(rates)):
        inp = next(inputs)
        result = run.worker("pass", inp, ops_in(inp))
        if result is None:
            break
        rates.append(result["ops"] / result["scaled_s"])
        raw_rates.append(result["ops"] / result["pass_s"])
        rss.append(result["peak_rss_mb"])
    run.top_up_setups()
    run.samples = {"ops_per_s": rates, "raw_ops_per_s": raw_rates,
                   "setup_s": [REF_LAUNCH_S * s["setup_s"] / s["ref_s"] for s in run.setups],
                   "raw_setup_s": [s["setup_s"] for s in run.setups],
                   "ref_launch_s": [s["ref_s"] for s in run.setups]}
    return {
        "setup_s": statistics.median(run.samples["setup_s"]),
        "ops_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "verified_ratio": (run.attempted - run.failed) / max(run.attempted, 1),
    }


def per_layer(run: Run, inputs, seed: int) -> dict:
    inp = next(inputs)
    plain, traced = [], []
    while run.want_pass(len(traced)):
        untraced = run.worker("pass", inp, ops_in(inp))
        result = run.worker("trace", inp, ops_in(inp))
        if untraced is None or result is None:
            break
        plain.append(untraced["pass_s"])
        traced.append(result)
    sweep = run.worker("sweep", {"seed": seed}, 3)
    run.top_up_setups()
    if not traced or sweep is None:
        raise SetupFailed("no traced pass or kernel sweep completed: "
                          + "; ".join(run.problems[-3:]))
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics.update(sweep["layers"])
    metrics["setup.import_s"] = run.setup_median("import_s")
    metrics["setup.verify_convention_s"] = run.setup_median("verify_convention_s")
    metrics["trace.overhead_ratio"] = (statistics.median(r["pass_s"] for r in traced)
                                       / statistics.median(plain))
    metrics["check.error_rate"] = run.failed / max(run.attempted, 1)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "casson3", "__init__.py")):
        print(f"bench: no casson3 sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    run = Run(args.workload, args.seconds)
    inputs = pass_inputs(args.workload, args.seed)
    try:
        if args.trace:
            values = per_layer(run, inputs, args.seed)
        else:
            values = end_to_end(run, inputs)
    except SetupFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"bench: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    env = dict(run.env, nproc=os.cpu_count(), commit=git_commit(), seed=args.seed,
               workload=args.workload, seconds=args.seconds, trace=args.trace,
               processes=len(run.setups), wall_s=run.elapsed())
    print(json.dumps({"env": env, "samples": run.samples, "problems": run.problems[:20]}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
