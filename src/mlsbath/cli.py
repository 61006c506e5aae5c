"""Command-line front-end.

Usage::

    mlsbath <command> --config CFG --out DIR

with ``<command>`` one of ``evolve``, ``rates``, ``sweep``,
``correlator-table``, ``spectrum-table`` and ``rpa`` (``mlsbath --help``
lists them with what each does).  Every command takes all its settings
from the INI configuration documented in :mod:`mlsbath.harness`, writes
its tables/JSON into ``--out``, and exits nonzero with a message on
stderr when the configuration is invalid or a computation fails.
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


COMMANDS = {
    "evolve": "integrate one trajectory",
    "rates": "integrate and fit decoherence rates",
    "sweep": "run a parameter sweep",
    "correlator-table": "tabulate the noise correlator",
    "spectrum-table": "tabulate the spectral density",
    "rpa": "total mode-number correction and fluctuation",
}

# built once, at import: every command takes the same two options
PARSER = argparse.ArgumentParser(
    prog="mlsbath",
    description="Zero-temperature multilevel decoherence toolkit",
    epilog="commands:\n" + "".join(f"  {name:<18}{text}\n" for name, text in COMMANDS.items()),
    formatter_class=argparse.RawDescriptionHelpFormatter,
)
PARSER.add_argument("command", choices=COMMANDS, metavar="command",
                    help="one of the commands below")
PARSER.add_argument("--config", required=True, metavar="CFG", help="configuration file (INI)")
PARSER.add_argument("--out", required=True, metavar="DIR", help="output directory")


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
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
