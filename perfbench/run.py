"""End-to-end and per-layer benchmark for mlsbath.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload rates --seed 0 --seconds 55 --trace 0

Workloads: ``rates`` and ``rpa`` (see ``workloads.py``).  Every job is
one CLI invocation, run in-process through ``mlsbath.cli.main(argv)`` on
INI files generated from the seed, so the package import is paid once
and measured separately, in fresh interpreters, as ``setup_s``.  The
loop is closed with one client: the next job starts when the previous
one returns.  A run executes whole decks until ``MIN_JOBS`` jobs have
run and the job time is within half a deck of ``--seconds``, so every
run sees the same mix of jobs.  The tail is a fixed percentile, p75, so
that it names the same jobs on a faster or slower commit; ``MIN_JOBS``
leaves at least ten jobs beyond it.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (spans around the program's public
functions, see ``spans.py``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, starting with ``#``, records the
machine, the checks that ran and the tail percentile with its sample
count.  The program is imported from ``src/`` next to this directory;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCES = HERE / "references.json"

sys.path.insert(0, str(HERE))

from checks import Outcome, check_job, checks_run  # noqa: E402
from spans import Instrumented, Tracer, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Job, make_deck, write_deck  # noqa: E402

TAIL_PERCENTILE = 75.0
TAIL_BEYOND = 10
MIN_JOBS = math.ceil(TAIL_BEYOND / (1.0 - TAIL_PERCENTILE / 100.0))
SETUP_REPEATS = 3
# Recorded as found and never set: pinning them would hide how BLAS
# threads interact with the program's own processes.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# A fresh interpreter imports the dependencies, then the package, then
# loads the first config.  argv: <src dir> <config>.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import numpy, scipy.integrate, scipy.optimize, scipy.special
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mlsbath.cli
t2 = time.perf_counter()
mlsbath.cli.load_config(sys.argv[2])
t3 = time.perf_counter()
print(json.dumps({"import_deps_s": t1 - t0, "import_mlsbath_s": t2 - t1,
                  "load_config_s": t3 - t2}))
"""


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, or a broken set-up)."""


@dataclass
class JobResult:
    index: int
    seconds: float
    outcome: Outcome


def tail_time(times: list[float]) -> float | None:
    """Nearest-rank ``TAIL_PERCENTILE`` of ``times``, or None when fewer
    than ``TAIL_BEYOND`` jobs lie above it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered)))
    if len(ordered) - rank < TAIL_BEYOND:
        return None
    return ordered[rank - 1]


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def measure_setup(config: Path) -> dict:
    """Medians over fresh interpreters: total wall time and its parts."""
    walls, parts = [], defaultdict(list)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        for key, value in json.loads(proc.stdout.strip().splitlines()[-1]).items():
            parts[key].append(value)
    return {"setup_s": statistics.median(walls),
            **{key: statistics.median(values) for key, values in parts.items()}}


class Runner:
    """Runs deck jobs through ``mlsbath.cli.main`` and checks each one."""

    def __init__(self, deck: list[Job], configs: list[Path], work: Path,
                 references: list[dict] | None):
        from mlsbath import cli

        self.cli = cli
        self.deck = deck
        self.configs = configs
        self.work = work
        self.references = references

    def run(self, index: int, tracer: Tracer | None = None) -> JobResult:
        job = self.deck[index]
        out = self.work / "out" / job.name
        shutil.rmtree(out, ignore_errors=True)
        argv = job.argv(self.configs[index], out)
        error = None
        span = None
        if tracer is not None:
            tracer.job = index
            span = tracer.open("cli.main")
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # a crashing job is counted, the run goes on
            code, error = -1, exc
        finally:
            seconds = time.perf_counter() - start
            if span is not None:
                tracer.close(span)
                tracer.job = None
        reference = None if self.references is None else self.references[index]
        outcome = check_job(job, code, out, reference)
        if error is not None:
            outcome.failures.insert(0, f"raised {error!r}")
        shutil.rmtree(out, ignore_errors=True)
        return JobResult(index, seconds, outcome)

    def loop(self, seconds: float, min_jobs: int, tracer: Tracer | None = None):
        """Whole decks until ``min_jobs`` jobs have run and the job time
        is within half a deck of ``seconds``."""
        results: list[JobResult] = []
        busy = 0.0
        decks = 0
        while decks == 0 or len(results) < min_jobs or busy + busy / decks / 2.0 < seconds:
            for index in range(len(self.deck)):
                results.append(self.run(index, tracer))
                busy += results[-1].seconds
            decks += 1
        return results


def load_references(workload: str) -> list[dict]:
    data = json.loads(REFERENCES.read_text())
    if data["seed"] != DEFAULT_SEED:
        raise BenchmarkError("references.json was recorded for another seed")
    return data["workloads"][workload]


def summary(results: list[JobResult]) -> dict:
    attempted = len(results)
    failed = sum(1 for r in results if r.outcome.failures)
    invalid = sum(1 for r in results if r.outcome.invalid and not r.outcome.failures)
    return {"attempted": attempted, "failed": failed, "invalid": invalid,
            "failures": sorted({f"{r.index}: {f}" for r in results for f in r.outcome.failures})[:20]}


def end_to_end(results: list[JobResult], setup: dict) -> tuple[dict, dict]:
    times = [r.seconds for r in results]
    tail = tail_time(times)
    if tail is None:
        raise BenchmarkError(f"{len(times)} jobs are too few for a tail percentile")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    valid = sum(1 for r in results if not (r.outcome.failures or r.outcome.invalid))
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail, "s"),
        "valid_frac": (valid / len(results), "fraction"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    info = {"tail_percentile": TAIL_PERCENTILE, "tail_samples": len(times)}
    return metrics, info


def layer_metrics(spans: list[dict], jobs: int, setup: dict) -> dict:
    """Per-job means of self times and counts, keyed by metric name."""
    own = self_times(spans)
    self_s = defaultdict(float)
    count = defaultdict(float)
    steps = 0
    history_bytes = 0
    levels = 0
    for span in spans:
        name = span["name"]
        self_s[name] += own[span["id"]]
        count[name] += 1
        if name == "evolve.integrate":
            steps += span["steps"]
            levels = max(levels, span["levels"])
            # stored states plus the two cached product arrays, complex128
            history_bytes = max(history_bytes, 3 * (span["steps"] + 1) * span["levels"] ** 2 * 16)
        for key in ("points", "bytes", "flagged", "nonfinite", "negative_n"):
            if key in span:
                count[f"{name}.{key}"] += span[key]
    per_job = lambda x: x / jobs  # noqa: E731
    table_points = count["spectra.correlator_table.points"]
    return {
        "setup.import_deps_s": (setup["import_deps_s"], "s"),
        "setup.import_mlsbath_s": (setup["import_mlsbath_s"], "s"),
        "setup.load_config_s": (setup["load_config_s"], "s"),
        "harness.load_config_s": (per_job(self_s["harness.load_config"]), "s/job"),
        "spectra.correlator_table_s": (per_job(self_s["spectra.correlator_table"]), "s/job"),
        "spectra.table_points": (per_job(table_points), "1/job"),
        "spectra.table_us_per_point": (
            1e6 * self_s["spectra.correlator_table"] / table_points if table_points else 0.0, "us"),
        "evolve.integrate_self_s": (per_job(self_s["evolve.integrate"]), "s/job"),
        "evolve.steps": (per_job(steps), "1/job"),
        "evolve.levels": (levels, "count"),
        "evolve.self_us_per_step": (
            1e6 * self_s["evolve.integrate"] / steps if steps else 0.0, "us"),
        "evolve.history_bytes": (history_bytes, "B-computed"),
        "rates.extract_rates_s": (per_job(self_s["rates.extract_rates"]), "s/job"),
        "harness.write_s": (per_job(self_s["harness.write"]), "s/job"),
        "harness.write_bytes": (per_job(count["harness.write.bytes"]), "B/job"),
        "harness.run_scenario_self_s": (per_job(self_s["harness.run_scenario"]), "s/job"),
        "rpa.delta_n_total_s": (per_job(self_s["rpa.delta_n_total"]), "s/job"),
        "rpa.calls": (per_job(count["rpa.delta_n_total"]), "1/job"),
        "rpa.flagged_results": (per_job(count["rpa.delta_n_total.flagged"]), "1/job"),
        "rpa.negative_n_results": (per_job(count["rpa.delta_n_total.negative_n"]), "1/job"),
        "rpa.nonfinite_results": (per_job(count["rpa.delta_n_total.nonfinite"]), "1/job"),
        "cli.main_self_s": (per_job(self_s["cli.main"]), "s/job"),
    }


def traced_run(runner: Runner, seconds: float, setup: dict, work: Path):
    """Traced decks for half the time, then the same jobs untraced to
    measure the tracing overhead."""
    tracer = Tracer()
    with Instrumented(tracer):
        traced = runner.loop(seconds / 2.0, min_jobs=1, tracer=tracer)
    untraced = [runner.run(r.index) for r in traced]
    tracer.write(work / "spans.json")
    traced_s = sum(r.seconds for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    metrics = layer_metrics(tracer.spans, len(traced), setup)
    metrics.update({
        "trace.jobs": (len(traced), "count"),
        "trace.job_s": (traced_s / len(traced), "s/job"),
        "trace.untraced_job_s": (untraced_s / len(untraced), "s/job"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "fraction"),
    })
    return traced + untraced, metrics, {"traced_jobs": len(traced)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    if not (SRC / "mlsbath" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'mlsbath'} is missing")
    sys.path.insert(0, str(SRC))
    import mlsbath

    if Path(mlsbath.__file__).resolve().parent != (SRC / "mlsbath").resolve():
        raise BenchmarkError(f"imported mlsbath from {mlsbath.__file__}, not from {SRC}")

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    deck = make_deck(args.workload, args.seed)
    configs = write_deck(deck, work / "configs")
    references = load_references(args.workload) if args.seed == DEFAULT_SEED else None
    facts = machine_facts()
    try:
        setup = measure_setup(configs[0])
        runner = Runner(deck, configs, work, references)
        runner.run(0)  # warm-up: first-call costs inside numpy and scipy
        if args.trace:
            results, metrics, info = traced_run(runner, args.seconds, setup, work)
        else:
            results = runner.loop(args.seconds, MIN_JOBS)
            metrics, info = end_to_end(results, setup)
    finally:
        shutil.rmtree(work / "out", ignore_errors=True)
    counts = summary(results)
    print("# " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "machine": facts,
        "checks": checks_run(deck[0].command, references is not None),
        "reference_outputs": references is not None,
        "jobs": counts["attempted"],
        "decks": counts["attempted"] / len(deck),
        "invalid_results": counts["invalid"],
        "failures": counts["failures"],
        **info,
    }))
    return {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
