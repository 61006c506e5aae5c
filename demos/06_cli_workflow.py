#!/usr/bin/env python3
"""End-to-end tour of the command-line interface on the committed configs.

Equivalent shell commands:

    mlsbath rates            --config demos/configs/baseline_run.ini    --out out/base
    mlsbath spectrum-table   --config demos/configs/baseline_run.ini    --out out/base
    mlsbath correlator-table --config demos/configs/correlator_table.ini --out out/corr
    mlsbath sweep            --config demos/configs/center_sweep.ini    --out out/center
    mlsbath rpa              --config demos/configs/rpa_point.ini       --out out/rpa

Run:  python demos/06_cli_workflow.py   (a few seconds)
"""

import json
import tempfile
from pathlib import Path

from mlsbath.cli import main

CONFIGS = Path(__file__).parent / "configs"


def run(*args):
    print("\n$ mlsbath " + " ".join(args))
    code = main(list(args))
    if code != 0:
        raise SystemExit(code)


with tempfile.TemporaryDirectory(prefix="mlsbath-demo-") as tmp:
    out_root = Path(tmp)
    print("writing outputs under", out_root)

    run("rates", "--config", str(CONFIGS / "baseline_run.ini"), "--out", str(out_root / "base"))
    print((out_root / "base" / "rates.json").read_text().rstrip())

    run("spectrum-table", "--config", str(CONFIGS / "baseline_run.ini"),
        "--out", str(out_root / "base"))
    lines = (out_root / "base" / "spectrum.csv").read_text().splitlines()
    print("\n".join(lines[:3] + ["..."]))

    run("correlator-table", "--config", str(CONFIGS / "correlator_table.ini"),
        "--out", str(out_root / "corr"))
    lines = (out_root / "corr" / "correlator.csv").read_text().splitlines()
    print("\n".join(lines[:3] + ["..."]))

    run("sweep", "--config", str(CONFIGS / "center_sweep.ini"),
        "--out", str(out_root / "center"))
    lines = (out_root / "center" / "sweep.csv").read_text().splitlines()
    print("\n".join(lines[:4] + ["..."]))

    run("rpa", "--config", str(CONFIGS / "rpa_point.ini"), "--out", str(out_root / "rpa"))
    payload = json.loads((out_root / "rpa" / "rpa.json").read_text())
    print(f"N = {payload['n_total']:.6f}, Delta N = {payload['delta_n']:.6f}, "
          f"ratio = {payload['ratio']:.4f}")
