"""Output checks for one benchmark job.

Every job gets the invariant checks.  On the default seed the outputs
are also compared with ``references.json``, recorded from the seed
commit: the three rates, N and Delta N within ``RTOL``, and
``config_hash`` byte for byte.  RPA references apply only to the
off-resonant slots, which must also carry no warnings.

A job *fails* when the CLI raises or returns non-zero or an applicable
check fails.  An in-support RPA job whose N is not positive or whose N
or Delta N is not finite is *invalid*: the program returns such results
without a typed error, so the benchmark counts them separately instead
of treating them as a broken run.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import OFF_RESONANT, Job

# Conservation bounds that the acceptance suite holds the integrator to.
TRACE_DRIFT_BOUND = 1e-6
HERMITICITY_BOUND = 1e-8
# Reference agreement: allows rounding-level changes from a reordered
# sum, not a different result.
RTOL = 1e-6
ATOL = 1e-12

RATE_KEYS = ("relaxation_rate", "dephasing_rate", "leakage_rate")
INVARIANTS = {
    "rates": ("exit code 0", "rates finite and >= 0",
              f"trace drift <= {TRACE_DRIFT_BOUND:g}",
              f"hermiticity defect <= {HERMITICITY_BOUND:g}",
              "one trajectory row per step", "config_hash is 16 hex digits"),
    "rpa": ("exit code 0", "off-resonant: N > 0, N and Delta N finite, no warnings",
            "config_hash is 16 hex digits"),
}
REFERENCE_CHECKS = {
    "rates": ("rates match reference", "config_hash equals reference"),
    "rpa": ("off-resonant: N and Delta N match reference", "config_hash equals reference"),
}


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    invalid: bool = False


def _finite_nonneg(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0


def _is_hash(h) -> bool:
    return isinstance(h, str) and len(h) == 16 and all(c in "0123456789abcdef" for c in h)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL) or (math.isnan(a) and math.isnan(b))


def read_record(job: Job, out: Path) -> dict:
    """The job's outputs reduced to the values the checks compare."""
    if job.command == "rates":
        payload = json.loads((out / "rates.json").read_text())
        with open(out / "trajectory.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        return {
            **{k: payload[k] for k in RATE_KEYS},
            "max_trace_drift": payload["max_trace_drift"],
            "max_hermiticity_defect": payload["max_hermiticity_defect"],
            "trajectory_rows": rows,
            "config_hash": payload["config_hash"],
        }
    payload = json.loads((out / "rpa.json").read_text())
    return {k: payload[k] for k in ("n_total", "delta_n", "warnings", "config_hash")}


def _config(job: Job) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read_string(job.ini)
    return parser


def _check_rates(rec: dict, failures: list[str]) -> None:
    for k in RATE_KEYS:
        if not _finite_nonneg(rec[k]):
            failures.append(f"{k} = {rec[k]!r}")
    if not rec["max_trace_drift"] <= TRACE_DRIFT_BOUND:
        failures.append(f"trace drift {rec['max_trace_drift']:.3g}")
    if not rec["max_hermiticity_defect"] <= HERMITICITY_BOUND:
        failures.append(f"hermiticity defect {rec['max_hermiticity_defect']:.3g}")


def _compare(rec: dict, ref: dict, keys: tuple[str, ...], failures: list[str]) -> None:
    for k in keys:
        if not _close(rec[k], ref[k]):
            failures.append(f"{k} = {rec[k]!r}, reference {ref[k]!r}")
    if rec["config_hash"] != ref["config_hash"]:
        failures.append(f"config_hash {rec['config_hash']}, reference {ref['config_hash']}")


def check_job(job: Job, exit_code: int, out: Path, reference: dict | None) -> Outcome:
    """Invariant checks, plus reference checks when ``reference`` is given."""
    outcome = Outcome()
    failures = outcome.failures
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
        return outcome
    try:
        rec = read_record(job, out)
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"unreadable output: {exc!r}")
        return outcome

    if not _is_hash(rec["config_hash"]):
        failures.append(f"config_hash {rec['config_hash']!r}")
    if job.command == "rates":
        _check_rates(rec, failures)
        evolution = _config(job)["evolution"]
        steps = round(float(evolution["t_max"]) / float(evolution["dt"]))
        if rec["trajectory_rows"] != steps + 1:
            failures.append(f"trajectory has {rec['trajectory_rows']} rows, expected {steps + 1}")
        if reference is not None:
            _compare(rec, reference, RATE_KEYS, failures)
        return outcome

    n, dn = rec["n_total"], rec["delta_n"]
    valid = math.isfinite(n) and math.isfinite(dn) and n > 0
    if job.label == OFF_RESONANT:
        if not valid:
            failures.append(f"off-resonant N = {n!r}, Delta N = {dn!r}")
        if rec["warnings"]:
            failures.append(f"off-resonant warnings {rec['warnings']}")
        if reference is not None:
            _compare(rec, reference, ("n_total", "delta_n"), failures)
    else:
        outcome.invalid = not valid
        if reference is not None:  # config_hash only
            _compare(rec, reference, (), failures)
    return outcome


def checks_run(workload_command: str, with_reference: bool) -> list[str]:
    """Names of the checks applied to a job of this command."""
    names = list(INVARIANTS[workload_command])
    if with_reference:
        names += REFERENCE_CHECKS[workload_command]
    return names
