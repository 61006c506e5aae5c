"""Command-line front-end.

Subcommands::

    mlsbath evolve           --config CFG --out DIR
    mlsbath rates            --config CFG --out DIR
    mlsbath sweep            --config CFG --out DIR
    mlsbath correlator-table --config CFG --out DIR
    mlsbath spectrum-table   --config CFG --out DIR
    mlsbath rpa              --config CFG --out DIR

All subcommands take every setting from the INI configuration
documented in :mod:`mlsbath.harness`, write their tables/JSON into
``--out``, and exit nonzero with a message on stderr when the
configuration is invalid or a computation fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .harness import (
    ConfigError,
    load_config,
    rpa_record,
    run_scenario,
    run_sweep,
    run_trajectory,
    write_columns_csv,
    write_json,
    write_sweep_csv,
    write_trajectory_csv,
)
from .rpa import delta_n_total
from .spectra import correlator_table, evaluate


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="configuration file (INI)")
    sub.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlsbath",
        description="Zero-temperature multilevel decoherence toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("evolve", help="integrate one trajectory"))
    _add_common(subs.add_parser("rates", help="integrate and fit decoherence rates"))
    _add_common(subs.add_parser("sweep", help="run a parameter sweep"))
    _add_common(subs.add_parser("correlator-table", help="tabulate the noise correlator"))
    _add_common(subs.add_parser("spectrum-table", help="tabulate the spectral density"))
    _add_common(subs.add_parser("rpa", help="total mode-number correction and fluctuation"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario, sweep, table = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        if args.command == "evolve":
            traj = run_trajectory(scenario)
            write_trajectory_csv(out / "trajectory.csv", traj)
        elif args.command == "rates":
            run_scenario(scenario, out)
        elif args.command == "sweep":
            if sweep is None:
                raise ConfigError(f"{args.config}: sweep subcommand needs a [sweep] section")
            rows = run_sweep(sweep)
            write_sweep_csv(out / "sweep.csv", sweep, rows)
        elif args.command == "correlator-table":
            values = correlator_table(scenario.model, table["t_max"], table["dt"])
            taus = np.arange(len(values)) * table["dt"]
            write_columns_csv(out / "correlator.csv", ["tau", "re_f", "im_f"],
                              [taus, values.real, values.imag])
        elif args.command == "spectrum-table":
            omegas = np.linspace(table["omega_min"], table["omega_max"], table["points"])
            write_columns_csv(out / "spectrum.csv", ["omega", "intensity"],
                              [omegas, evaluate(scenario.model, omegas)])
        elif args.command == "rpa":
            spec = scenario.system.build()
            result = delta_n_total(spec, scenario.model, scenario.state, scenario.rpa)
            write_json(out / "rpa.json",
                       {**rpa_record(result), "config_hash": scenario.config_hash()})
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
