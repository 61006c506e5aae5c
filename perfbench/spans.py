"""In-memory spans around the program's public functions.

The benchmark wraps functions under the names the program calls them by
(modules import them by name, so ``mlsbath.cli.load_config`` and
``mlsbath.harness.load_config`` are separate bindings).  Each call opens a
span with its parent's id; spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus the part
of its interval that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from pathlib import Path

# (module, attribute, span name).  A span name is "<layer>.<operation>".
WRAPPED = (
    ("mlsbath.cli", "load_config", "harness.load_config"),
    ("mlsbath.cli", "run_scenario", "harness.run_scenario"),
    ("mlsbath.cli", "delta_n_total", "rpa.delta_n_total"),
    ("mlsbath.harness", "integrate", "evolve.integrate"),
    ("mlsbath.harness", "extract_rates", "rates.extract_rates"),
    ("mlsbath.harness", "write_trajectory_csv", "harness.write"),
    ("mlsbath.harness", "write_rates_json", "harness.write"),
    ("mlsbath.evolve", "correlator_table", "spectra.correlator_table"),
)


class Tracer:
    """Records spans; ``job`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.job: int | None = None

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, default=str) + "\n")


def _record(name: str, span: dict, args: tuple, kwargs: dict, result) -> None:
    """Counts taken at the span boundary from arguments and results."""
    if name == "evolve.integrate":
        spec = args[0]
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
        span["steps"] = cfg.n_steps if cfg is not None else len(result.times) - 1
        span["levels"] = spec.n_levels
    elif name == "spectra.correlator_table":
        span["points"] = len(result)
    elif name == "harness.write":
        span["bytes"] = Path(args[0]).stat().st_size
    elif name == "rpa.delta_n_total":
        finite = math.isfinite(result.n_total) and math.isfinite(result.delta_n)
        span["flagged"] = bool(result.warnings)
        span["nonfinite"] = not finite
        span["negative_n"] = result.n_total < 0


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        _record(name, span, args, kwargs, result)
        return result

    return traced


class Instrumented:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, _wrap(self.tracer, name, original))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }
