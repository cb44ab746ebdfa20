"""witnesskit benchmark.

    python3 perfbench/run.py --workload {iso-project,random-project,cli-mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One process drives the load, one case at a time (a closed loop
with a single caller).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` times whole passes over the workload's case list, about S
seconds of them, and reports the end-to-end metrics.  ``wall_s`` and
``cpu_s`` are scaled to the host's reference speed, measured with a fixed
kernel between and within the cases (see ``refspeed.py``), because the
host's own speed drifts.
``--trace 1`` runs one untraced pass and then two traced passes, reports the
per-layer metrics of the first and flags any count that differs between
the two.  Spans (``--trace 1``) and every timed interval (``--trace 0``)
are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "witnesskit" / "__init__.py").is_file():
    sys.exit(f"perfbench: no witnesskit sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import refspeed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Outcome  # noqa: E402

# Fresh processes per set-up measurement; setup_s is their median.  They
# run between the timed cases, spread evenly over the run, so that the
# median covers the host's slow and fast phases as the timed cases do.
SETUP_SAMPLES = 7
STARTUP_SAMPLES = 3
# An end-to-end run makes --seconds / NOMINAL_PASS_S passes, at least
# MIN_PASSES.  The pass count depends only on --seconds, so a faster
# program is not timed over more passes than its parent.
MIN_PASSES = 1
NOMINAL_PASS_S = {"iso-project": 25.0, "random-project": 10.0, "cli-mix": 8.0}
CHILD_TIMEOUT_S = 170

# What a fresh process does before the first library case: the imports,
# the lazy scipy.optimize import and a small warm-up call.
LIBRARY_SETUP = (
    "import scipy.optimize\n"
    "from witnesskit import isotropic, min_over_separable\n"
    "min_over_separable(-isotropic(2, 1.0).matrix, 2, 2)\n"
)
CLI_SETUP = "import witnesskit.cli\n"
# Prints the time to import scipy.optimize once witnesskit.cli is loaded.
STARTUP_PROBE = (
    "import time, witnesskit.cli\n"
    "t = time.perf_counter()\n"
    "import scipy.optimize\n"
    "print(time.perf_counter() - t)\n"
)


def cpu_now() -> float:
    """User plus system CPU time of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_child(code: str, env: dict):
    """Wall time and stdout of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return wall, proc.stdout


class Result(NamedTuple):
    case: workloads.Case
    wall: float
    cpu: float
    outcome: Outcome
    start: float  # time.perf_counter() when the case started


def run_case(case, runner, speed=None):
    """Wall time, CPU time and outcome of one case.  Kernel runs that
    ``speed`` makes during the case are taken out of both times."""
    stolen = (speed.stolen_wall, speed.stolen_cpu) if speed else (0.0, 0.0)
    c0, t0 = cpu_now(), time.perf_counter()
    try:
        with speed.during() if speed else contextlib.nullcontext():
            outcome = runner(case)
    except Exception as exc:  # a case that raises is a failed case, not a crash
        outcome = Outcome([f"{type(exc).__name__}: {exc}"])
    wall, cpu = time.perf_counter() - t0, cpu_now() - c0
    if speed:
        wall -= speed.stolen_wall - stolen[0]
        cpu -= speed.stolen_cpu - stolen[1]
    return wall, cpu, outcome


def run_pass(cases, runner, tracer=None, speed=None, after_case=None):
    """One pass over the case list: [Result].  With ``speed``, the reference
    kernel is timed before the first case, after every case and, for cases
    run in this process, within them.  ``after_case()``, if given, runs
    after every case, outside its timed interval."""
    results = []
    if speed is not None:
        speed.sample()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
            span = tracer.begin("case")
        start = time.perf_counter()
        results.append(Result(case, *run_case(case, runner, speed), start))
        if tracer is not None:
            tracer.end(span)
        if speed is not None:
            speed.sample()
        if after_case is not None:
            after_case()
    return results


def pass_wall(results) -> float:
    return sum(r.wall for r in results)


def report_failures(results) -> int:
    failed = 0
    for r in results:
        if r.outcome.failures:
            failed += 1
            for reason in r.outcome.failures:
                print(f"FAIL {r.case.label}: {reason}")
    return failed


class Workload:
    """The case list of one workload and how its cases are run."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.env = workloads.cli_env(str(SRC))
        if name == "cli-mix":
            self.cases = workloads.cli_mix(seed, workdir)
            self.runner = lambda case: workloads.run_cli_child(case, self.env)
            self.traced_runner = workloads.run_cli_inprocess
            self.setup_code = CLI_SETUP
        else:
            self.cases = (workloads.iso_project if name == "iso-project"
                          else workloads.random_project)(seed)
            self.runner = self.traced_runner = lambda case: case.run()
            self.setup_code = LIBRARY_SETUP

    def passes(self, seconds: float) -> int:
        return max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[self.name]))

    def warm_up(self):
        """Finish this process's own lazy set-up before the first timed case."""
        if self.name != "cli-mix":
            exec(LIBRARY_SETUP, {})

    def setup_wall(self) -> float:
        return run_child(self.setup_code, self.env)[0]

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.name == "cli-mix" else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024


def setup_schedule(gaps: int) -> list:
    """How many of the SETUP_SAMPLES set-up processes to run after each of
    ``gaps`` cases, spread evenly."""
    due = [0] * gaps
    for i in range(SETUP_SAMPLES):
        due[i * gaps // SETUP_SAMPLES] += 1
    return due


def write_times(path: Path, passes, speed: refspeed.Speed, setup_walls):
    """Every timed interval of an end-to-end run, unscaled, for analysis
    beyond the reported totals."""
    doc = {
        "cases": [[r.case.label, k, r.start, r.wall, r.cpu] for k, p in enumerate(passes) for r in p],
        "kernel": [list(pair) for pair in zip(speed.starts, speed.times)],
        "setup": setup_walls,
    }
    path.write_text(json.dumps(doc))


def end_to_end(wl: Workload, seconds: float, seed: int):
    """Timed passes with set-up samples between their cases; returns
    (attempted, failed, metrics, ok)."""
    wl.warm_up()
    refspeed.kernel()  # its first run pays for lazy set-up too
    # cli-mix cases are child processes: a kernel run during one would run
    # beside the child instead of pausing it
    speed = refspeed.Speed(inside=wl.name != "cli-mix")
    n_passes = wl.passes(seconds)
    due = setup_schedule(n_passes * len(wl.cases))
    setup_walls = []

    def after_case():
        for _ in range(due.pop(0)):
            setup_walls.append(wl.setup_wall())

    passes = [run_pass(wl.cases, wl.runner, speed=speed, after_case=after_case)
              for _ in range(n_passes)]
    setup = statistics.median(setup_walls)
    # Time per pass, over all passes: like the mean kernel time that scales
    # it, it adds up the run's slow and fast moments alike.
    results = [r for p in passes for r in p]
    wall = sum(r.wall for r in results) / len(passes)
    cpu = sum(r.cpu for r in results) / len(passes)
    failed = report_failures(results)
    scale = speed.factor()
    write_times(OUT / f"times-{wl.name}-seed{seed}.json", passes, speed, setup_walls)
    print(f"reference kernel: {len(speed.times)} runs, quartiles "
          + " ".join(f"{q:.4f}" for q in statistics.quantiles(speed.times, n=4))
          + f" s; unscaled wall_s {wall:.4f}, cpu_s {cpu:.4f}")
    print(f"passes {len(passes)}; fail_frac {failed}/{len(results)} = {failed / len(results):.4g}")
    metrics = {
        "wall_s": (wall * scale, "s"),
        "cpu_s": (cpu * scale, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    return len(results), failed, metrics, True


def traced(wl: Workload, seed: int):
    """Untraced pass, then two traced passes whose counts must agree."""
    startup, scipy_import = [], []
    for _ in range(STARTUP_SAMPLES):
        wall, out = run_child(STARTUP_PROBE, wl.env)
        scipy_import.append(float(out))
        startup.append(wall - scipy_import[-1])
    wl.warm_up()
    # cli-mix: the child-process pass gives cli.<subcommand>.s; the overhead
    # compares like with like, so it needs an untraced in-process pass too
    children = plain = run_pass(wl.cases, wl.runner)
    if wl.traced_runner is not wl.runner:
        plain = run_pass(wl.cases, wl.traced_runner)

    runs = []
    for _ in range(2):
        tracer = Tracer()
        layers.install(tracer)
        try:
            results = run_pass(wl.cases, wl.traced_runner, tracer)
        finally:
            tracer.unpatch()
        runs.append(layers.span_metrics(tracer.spans, [r.outcome for r in results]))
        if len(runs) == 1:
            first = results
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl.gz")

    counts_a, counts_b = (layers.count_metrics(m) for m in runs)
    mismatched = sorted(k for k in counts_a if counts_a[k] != counts_b[k])
    for k in mismatched:
        print(f"COUNT MISMATCH {k}: {counts_a[k]} then {counts_b[k]} with seed {seed}")

    metrics = runs[0]
    for sub in layers.CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.s"] = sum(r.wall for r in children if r.case.argv[:1] == (sub,))
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["cli.scipy_import_s"] = statistics.median(scipy_import)
    metrics["trace.overhead_s"] = pass_wall(first) - pass_wall(plain)
    results = children + (plain if plain is not children else []) + first
    failed = report_failures(results)
    return len(results), failed, {k: (v, layers.UNITS[k]) for k, v in metrics.items()}, not mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = Workload(args.workload, args.seed, workdir)
        if args.trace:
            attempted, failed, metrics, counts_ok = traced(wl, args.seed)
        else:
            attempted, failed, metrics, counts_ok = end_to_end(wl, args.seconds, args.seed)
    print(json.dumps({
        "correct": failed == 0 and counts_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
