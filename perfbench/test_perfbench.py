"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_job  # noqa: E402
from run import MIN_JOBS, tail_time  # noqa: E402
from spans import covered, self_times  # noqa: E402
from workloads import IN_SUPPORT, OFF_RESONANT, WORKLOADS, Job, make_deck, write_deck  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first = write_deck(make_deck(workload, 7), tmp_path / "a")
    second = write_deck(make_deck(workload, 7), tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    other = make_deck(workload, 8)
    assert [j.ini for j in other] != [j.ini for j in make_deck(workload, 7)]
    # the deck's shape does not depend on the seed
    assert [(j.command, j.label) for j in other] == [(j.command, j.label) for j in make_deck(workload, 7)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_configs_load(workload, tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    from mlsbath.harness import load_config

    for path in write_deck(make_deck(workload, 3), tmp_path):
        load_config(path)


def _rates_job() -> Job:
    ini = "[system]\nkind = three-level\n[evolution]\nt_max = 0.02\ndt = 0.01\n"
    return Job("trajectory", 0, "rates", ini)


def _write_rates(out: Path, relaxation: float) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "relaxation_rate": relaxation, "dephasing_rate": 0.2, "leakage_rate": 0.01,
        "r_squared": [1.0, 1.0, 1.0], "warnings": [],
        "max_trace_drift": 1e-15, "max_hermiticity_defect": 0.0,
        "config_hash": "0123456789abcdef",
    }
    (out / "rates.json").write_text(json.dumps(payload))
    (out / "trajectory.csv").write_text("t\n0\n0.01\n0.02\n")
    return {k: payload[k] for k in ("relaxation_rate", "dephasing_rate", "leakage_rate",
                                    "config_hash")}


def test_matching_reference_passes(tmp_path):
    reference = _write_rates(tmp_path, 0.1)
    outcome = check_job(_rates_job(), 0, tmp_path, reference)
    assert outcome.failures == []


def test_perturbed_reference_is_a_failure(tmp_path):
    reference = _write_rates(tmp_path, 0.1)
    perturbed = dict(reference, relaxation_rate=0.1 * (1 + 1e-4))
    assert any("relaxation_rate" in f for f in check_job(_rates_job(), 0, tmp_path, perturbed).failures)
    other_hash = dict(reference, config_hash="fedcba9876543210")
    assert any("config_hash" in f for f in check_job(_rates_job(), 0, tmp_path, other_hash).failures)


def test_invariants_apply_without_reference(tmp_path):
    _write_rates(tmp_path, float("nan"))
    assert check_job(_rates_job(), 0, tmp_path, None).failures
    assert check_job(_rates_job(), 1, tmp_path, None).failures == ["exit code 1"]


def _write_rpa(out: Path, n_total: float, delta_n: float, warnings=()) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    payload = {"n_total": n_total, "delta_n": delta_n, "ratio": 1.0,
               "warnings": list(warnings), "config_hash": "0123456789abcdef"}
    (out / "rpa.json").write_text(json.dumps(payload))
    return payload


def test_rpa_in_support_is_invalid_not_failed(tmp_path):
    _write_rpa(tmp_path, -2.0, math.nan, ["negative"])
    outcome = check_job(Job("rpa", 0, "rpa", "", IN_SUPPORT), 0, tmp_path, None)
    assert outcome.invalid and outcome.failures == []
    outcome = check_job(Job("rpa", 0, "rpa", "", OFF_RESONANT), 0, tmp_path, None)
    assert outcome.failures


def test_rpa_reference_applies_to_off_resonant(tmp_path):
    reference = _write_rpa(tmp_path, 0.0136, 0.0744)
    job = Job("rpa", 0, "rpa", "", OFF_RESONANT)
    assert check_job(job, 0, tmp_path, reference).failures == []
    assert check_job(job, 0, tmp_path, dict(reference, delta_n=0.0745)).failures


def _span(i, parent, start, end, name="x"):
    return {"id": i, "parent": parent, "job": 0, "name": name, "start": start, "end": end}


def test_self_time_of_a_span_tree():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 3.0, 6.0),   # overlaps span 1: the overlap counts once
        _span(4, 0, 9.0, 12.0),  # runs past its parent: clipped at 10
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(3.0)


def test_covered_merges_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(0.5, 2.0), (-1.0, 0.25)], 0.0, 1.0) == pytest.approx(0.75)
    assert covered([(0.0, 1.0), (0.2, 0.4)], 0.0, 1.0) == pytest.approx(1.0)


def test_tail_is_p75_with_ten_jobs_beyond():
    assert tail_time([float(k) for k in range(40, 0, -1)]) == 30.0
    assert tail_time([float(k) for k in range(1, 101)]) == 75.0
    assert tail_time([1.0] * MIN_JOBS) == 1.0  # a run's minimum is enough


def test_tail_with_too_few_jobs():
    assert tail_time([float(k) for k in range(1, 40)]) is None
    assert tail_time([]) is None
