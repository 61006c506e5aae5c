"""Configuration files, scenario runs, parameter sweeps and persistence.

Configuration format
--------------------
Plain INI (``configparser``): typed ``key = value`` pairs in sections.
Unknown keys and non-finite numbers are rejected.  All sections except
``[system]`` and ``[spectrum]`` are optional.

``[system]``  (keys per kind; a key of another kind is rejected)
    kind = three-level | two-level | multilevel | custom
    levels = <int>            (multilevel)
    delta = <float>           (multilevel; coupling range)
    flat = true|false         (multilevel; constant couplings)
    energies = e1 e2 ...      (custom)
    coupling = r1c1 r1c2 ...; r2c1 ...   (custom; rows split by ';')

``[state]``
    a = <complex>   b = <complex>     (default: sqrt(0.1), 1j*sqrt(0.9))

``[spectrum]``  (keys per kind; a key of another family is rejected)
    kind = rectangular | lorentzian | power-gaussian
    area = <float>
    center = <float>  width = <float>         (rectangular/lorentzian)
    ohmicity = <float>  cutoff = <float>      (power-gaussian)

``[evolution]``   t_max, dt, corrector_iterations
``[fit]``         t_lo, t_hi
``[rpa]``         pole_shift, ladder, omega_max, scan_points
``[table]``       t_max >= dt > 0 (correlator table); omega_min < omega_max,
                  points >= 1 (spectrum table); an absent key takes its
                  value from ``[evolution]`` or the family's window()
``[sweep]``
    kind = spectral-center | spectral-area | levels | correlator |
           rpa-width | rpa-area
    grid = v1 v2 v3 ...       (strictly monotone; integers for levels)
    grid_log = start stop count   (log-spaced alternative)

Outputs
-------
CSV files carry a header row, comma separators, LF line endings and
full double precision (17 significant digits), so repeated runs are
byte-identical.  Sweeps write a ``*.meta.ini`` sidecar echoing the
resolved base configuration and its hash; every row carries the
per-point config hash.  Failed sweep points are recorded in-row in the
``status`` column and do not stop the sweep.  The trajectories of a
``spectral-area`` or ``spectral-center`` sweep step together as one
batch (:func:`~mlsbath.evolve.integrate_batch`); their rows are the bytes
one run per point would give.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .evolve import EvolutionConfig, Trajectory, integrate, integrate_batch
from .model import (
    QubitInitialState,
    SystemSpec,
    build_multilevel,
    build_three_level,
    build_two_level,
    default_initial_state,
    initial_density,
    is_finite,
)
from .rates import FitWindow, RateSet, extract_rates
from .rpa import RpaConfig, delta_n_total
from .spectra import FAMILIES, SpectralModel, correlator

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepSpec",
    "load_config",
    "run_scenario",
    "run_sweep",
    "write_columns_csv",
    "write_json",
    "write_trajectory_csv",
    "write_rates_json",
    "write_sweep_csv",
]

SWEEP_KINDS = (
    "spectral-center",
    "spectral-area",
    "levels",
    "correlator",
    "rpa-width",
    "rpa-area",
)

# section -> (ScenarioConfig field, dataclass, keys in canonical order); a
# key's type and default are those of the dataclass's default instance
_SECTIONS = {
    "evolution": ("evolution", EvolutionConfig, ("t_max", "dt", "corrector_iterations")),
    "fit": ("window", FitWindow, ("t_lo", "t_hi")),
    "rpa": ("rpa", RpaConfig, ("pole_shift", "ladder", "omega_max", "scan_points")),
}

_KNOWN_KEYS = {
    "system": {"kind"},  # plus the keys of the named kind
    "state": {"a", "b"},
    "spectrum": {"kind"},  # plus the ini_keys of the named family
    **{name: set(keys) for name, (_, _, keys) in _SECTIONS.items()},
    "table": {"t_max", "dt", "omega_min", "omega_max", "points"},
    "sweep": {"kind", "grid", "grid_log"},
}


class ConfigError(ValueError):
    """Configuration file violates the schema or a model invariant."""


@dataclass(frozen=True)
class SystemChoice:
    """System selector kept symbolic so sweeps can rebuild at other sizes:
    ``kind`` names a row of ``_SYSTEMS``, ``values`` maps each of the row's
    builder arguments to its value (None for an absent optional key)."""

    kind: str
    values: dict

    def build(self) -> SystemSpec:
        builder, _ = _SYSTEMS[self.kind]
        return builder(**self.values)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to integrate one trajectory and fit its rates."""

    system: SystemChoice
    state: QubitInitialState
    model: SpectralModel
    evolution: EvolutionConfig
    window: FitWindow
    rpa: RpaConfig

    def canonical_text(self) -> str:
        """Deterministic key=value rendering used for hashing and sidecars."""
        system = self.system
        lines = ["[system]", f"kind = {system.kind}"]
        for key, arg, _, _ in _SYSTEMS[system.kind][1]:
            if system.values[arg] is not None:
                lines.append(f"{key} = {_text(system.values[arg])}")
        lines += ["[state]", f"a = {self.state.a!r}", f"b = {self.state.b!r}", "[spectrum]"]
        m = self.model
        lines.append(f"kind = {m.kind}")
        lines += [f"{key} = {_fmt(getattr(m, field))}" for key, field in m.ini_keys.items()]
        for name, (field, _, keys) in _SECTIONS.items():
            config = getattr(self, field)
            lines.append(f"[{name}]")
            lines += [f"{key} = {_text(getattr(config, key))}" for key in keys]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid swept over a base scenario."""

    kind: str
    grid: tuple[float, ...]
    base: ScenarioConfig

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ConfigError(f"unknown sweep kind {self.kind!r}, expected one of {SWEEP_KINDS}")
        if len(self.grid) == 0:
            raise ConfigError("sweep grid must be non-empty")
        diffs = np.diff(self.grid)
        if len(self.grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("sweep grid must be strictly monotone")
        if self.kind == "levels":
            if self.base.system.kind != "multilevel":
                raise ConfigError("levels sweep requires a multilevel base system")
            for value in self.grid:
                if not float(value).is_integer():
                    raise ConfigError(f"levels sweep grid holds a non-integer {_fmt(value)}")
        if self.kind == "spectral-center" and "center" not in self.base.model.ini_keys:
            raise ConfigError(
                f"spectral-center sweep needs a spectrum with a center, not {self.base.model.kind}"
            )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _text(value) -> str:
    """INI text of a parsed value: the inverse of its cast."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        # rows of a matrix are separated by ';', numbers by spaces
        return ("; " if isinstance(value[0], tuple) else " ").join(_text(v) for v in value)
    return _fmt(value) if isinstance(value, float) else str(value)


# --- parsing -----------------------------------------------------------------


REQUIRED = object()  # the ``default`` of a key that must be present


def _typed(section, key, cast, default=REQUIRED, *, path="<config>", what=None):
    """``cast(section[key])``, or ``default`` when the key is absent (an
    error when it is REQUIRED).  A value ``cast`` rejects raises ConfigError
    naming the file, section and key, and ``what`` (default: the cast's
    description); so does a value that is or holds inf or NaN."""
    if key not in section:
        if default is REQUIRED:
            raise ConfigError(f"{path}: [{section.name}] missing required key {key!r}")
        return default
    raw = section[key]
    try:
        if cast is bool:
            if raw.lower() not in ("true", "false"):
                raise ValueError(raw)
            return raw.lower() == "true"
        value = cast(raw)
    except ValueError as exc:
        what = what or _WHAT.get(cast, cast.__name__)
        raise ConfigError(
            f"{path}: [{section.name}] {key} = {raw!r} is not a valid {what}"
        ) from exc
    if not is_finite(value):
        raise ConfigError(f"{path}: [{section.name}] {key} = {raw!r} is not finite")
    return value


def _numbers(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split())


def _rows(raw: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_numbers(row) for row in raw.split(";") if row.strip())


def _count(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(raw)
    return value


_WHAT = {_numbers: "list of numbers", _rows: "list of ';'-separated rows of numbers",
         _count: "positive integer"}


def _log_grid(raw: str) -> tuple[float, ...]:
    start, stop, count = raw.split()
    start, stop = float(start), float(stop)
    if not (0 < start < np.inf and 0 < stop < np.inf):
        raise ValueError(raw)
    return tuple(np.logspace(np.log10(start), np.log10(stop), int(count)))


# system kind -> (builder, entries); each entry is (INI key, builder
# argument, cast, default) in canonical order, and the keys are the only
# ones the kind accepts besides ``kind``
_SYSTEMS = {
    "three-level": (build_three_level, ()),
    "two-level": (build_two_level, ()),
    "multilevel": (build_multilevel, (
        ("levels", "n_levels", int, REQUIRED),
        ("flat", "flat", bool, False),
        ("delta", "delta", float, None),
    )),
    "custom": (SystemSpec, (
        ("energies", "energies", _numbers, REQUIRED),
        ("coupling", "coupling", _rows, REQUIRED),
    )),
}


def _kind(section, table: dict, path: str) -> str:
    """``section``'s ``kind``, which must be a key of ``table``."""
    kind = _typed(section, "kind", str, path=path)
    if kind not in table:
        raise ConfigError(f"{path}: [{section.name}] unknown kind {kind!r}")
    return kind


def _check_known_keys(parser: configparser.ConfigParser, path: str) -> None:
    for name in parser.sections():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown section [{name}]")
        known = _KNOWN_KEYS[name]
        if name == "system":
            known = known | {key for key, *_ in _SYSTEMS[_kind(parser[name], _SYSTEMS, path)][1]}
        if name == "spectrum":
            known = known | set(FAMILIES[_kind(parser[name], FAMILIES, path)].ini_keys)
        extra = set(parser[name]) - known
        if extra:
            raise ConfigError(f"{path}: unknown key(s) {sorted(extra)} in [{name}]")


def _parse_system(parser, path) -> SystemChoice:
    if "system" not in parser:
        raise ConfigError(f"{path}: missing [system] section")
    sec = parser["system"]
    kind = _kind(sec, _SYSTEMS, path)
    values = {arg: _typed(sec, key, cast, default, path=path)
              for key, arg, cast, default in _SYSTEMS[kind][1]}
    choice = SystemChoice(kind, values)
    try:
        choice.build()
    except ValueError as exc:
        raise ConfigError(f"{path}: [system] invariant violation: {exc}") from exc
    return choice


def _parse_spectrum(parser, path) -> SpectralModel:
    if "spectrum" not in parser:
        raise ConfigError(f"{path}: missing [spectrum] section")
    sec = parser["spectrum"]
    family = FAMILIES[_kind(sec, FAMILIES, path)]
    fields = {field: _typed(sec, key, float, path=path) for key, field in family.ini_keys.items()}
    try:
        return family(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: [spectrum] {exc}") from exc


def load_config(path: str | Path) -> tuple[ScenarioConfig, SweepSpec | None, dict]:
    """Parse a configuration file into a scenario, optional sweep and
    table options.  Schema violations raise ConfigError naming the file,
    section and key."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    _check_known_keys(parser, str(path))

    system = _parse_system(parser, str(path))
    model = _parse_spectrum(parser, str(path))

    if "state" in parser:
        sec = parser["state"]
        a = _typed(sec, "a", complex, path=str(path))
        b = _typed(sec, "b", complex, path=str(path))
        try:
            state = QubitInitialState(a, b)
        except ValueError as exc:
            raise ConfigError(f"{path}: [state] {exc}") from exc
    else:
        state = default_initial_state()

    sections = {}
    for name, (field, cls, keys) in _SECTIONS.items():
        default = cls()
        if name not in parser:
            sections[field] = default
            continue
        values = {
            key: _typed(parser[name], key, type(getattr(default, key)),
                        default=getattr(default, key), path=str(path))
            for key in keys
        }
        try:
            sections[field] = cls(**values)
        except ValueError as exc:
            raise ConfigError(f"{path}: [{name}] {exc}") from exc

    scenario = ScenarioConfig(system=system, state=state, model=model, **sections)

    sweep = None
    if "sweep" in parser:
        sec = parser["sweep"]
        kind = _typed(sec, "kind", str, path=str(path))
        if "grid_log" in sec:
            grid = _typed(sec, "grid_log", _log_grid, path=str(path),
                          what="'start stop count' with start, stop > 0 and an integer count")
        elif "grid" in sec:
            grid = _typed(sec, "grid", lambda raw: _numbers(raw.replace(",", " ")),
                          path=str(path), what="list of numbers")
        else:
            raise ConfigError(f"{path}: [sweep] needs grid or grid_log")
        sweep = SweepSpec(kind=kind, grid=grid, base=scenario)

    table = {}
    if "table" in parser:
        sec = parser["table"]
        for key in ("t_max", "dt", "omega_min", "omega_max", "points"):
            if key in sec:
                cast = _count if key == "points" else float
                table[key] = _typed(sec, key, cast, path=str(path))
        _check_table(table, scenario, f"{path}: [table]")
    return scenario, sweep, table


def _check_table(table: dict, scenario: ScenarioConfig, where: str) -> None:
    """Range checks of ``[table]``.  An end the file does not give is
    checked, and named, with the value the subcommand uses instead: from
    ``[evolution]``, or the spectral family's ``window()``."""
    defaults = {"dt": scenario.evolution.dt, "t_max": scenario.evolution.t_max}
    defaults["omega_min"], defaults["omega_max"] = scenario.model.window()
    value = {key: table.get(key, default) for key, default in defaults.items()}

    def text(key: str) -> str:
        return f"{key} = {float(value[key])!r}" + ("" if key in table else " (default)")

    if value["dt"] <= 0:
        raise ConfigError(f"{where} {text('dt')} must be positive")
    if value["t_max"] < value["dt"]:
        raise ConfigError(f"{where} {text('t_max')} must be at least {text('dt')}")
    if not value["omega_min"] < value["omega_max"]:
        raise ConfigError(f"{where} {text('omega_min')} must be below {text('omega_max')}")


# --- scenario run ------------------------------------------------------------


def run_trajectory(scenario: ScenarioConfig) -> Trajectory:
    spec = scenario.system.build()
    rho0 = initial_density(scenario.state, spec.n_levels)
    return integrate(spec, scenario.model, rho0, scenario.evolution)


def run_scenario(scenario: ScenarioConfig, out_dir: str | Path) -> tuple[Trajectory, RateSet]:
    """Integrate and fit ``scenario`` (from :func:`load_config`), and write
    ``trajectory.csv`` and ``rates.json`` into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj = run_trajectory(scenario)
    rates = extract_rates(traj, scenario.window)
    write_trajectory_csv(out / "trajectory.csv", traj)
    write_rates_json(out / "rates.json", rates, traj, scenario)
    return traj, rates


def write_columns_csv(path: str | Path, header: list[str], columns: list) -> None:
    """A header row, then row k holding element k of every float column,
    each in full precision."""
    # '%.17g' % x gives the same text as _fmt(x) for every double
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.column_stack(columns):
            fh.write(row_format % tuple(row))


def write_json(path: str | Path, payload: dict) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Columns: t, Re/Im of each upper-triangle entry, then the three
    derived observables."""
    m = traj.states.shape[1]
    pairs = [(n, r) for n in range(m) for r in range(n, m)]
    header = ["t"]
    columns = [traj.times]
    for n, r in pairs:
        header += [f"re_rho_{n + 1}_{r + 1}", f"im_rho_{n + 1}_{r + 1}"]
        columns += [traj.states[:, n, r].real, traj.states[:, n, r].imag]
    header += ["population_2", "coherence_12", "leakage"]
    columns += [traj.population_2, traj.coherence_12, traj.leakage]
    write_columns_csv(path, header, columns)


def write_rates_json(
    path: str | Path, rates: RateSet, traj: Trajectory, scenario: ScenarioConfig
) -> None:
    payload = {
        "relaxation_rate": rates.relaxation_rate,
        "dephasing_rate": rates.dephasing_rate,
        "leakage_rate": rates.leakage_rate,
        "r_squared": list(rates.r_squared),
        "warnings": list(rates.warnings),
        "max_trace_drift": traj.max_trace_drift,
        "max_hermiticity_defect": traj.max_hermiticity_defect,
        "history_modes": traj.history_modes,
        "mode_error": traj.mode_error,
        "config_hash": scenario.config_hash(),
    }
    write_json(path, payload)


# --- sweeps ------------------------------------------------------------------


def _point_scenario(kind: str, base: ScenarioConfig, value: float) -> ScenarioConfig:
    if kind in ("spectral-center", "spectral-area", "rpa-area", "rpa-width"):
        ini_keys = base.model.ini_keys
        # rpa-width sweeps the family's last key: its width, or cutoff
        key = {"spectral-center": "center", "rpa-width": list(ini_keys)[-1]}.get(kind, "area")
        return replace(base, model=replace(base.model, **{ini_keys[key]: value}))
    if kind == "levels":
        values = {**base.system.values, "n_levels": int(value)}
        return replace(base, system=replace(base.system, values=values))
    if kind == "correlator":
        return base
    raise ConfigError(f"unknown sweep kind {kind!r}")


def _rate_columns(rates: RateSet, traj: Trajectory) -> dict:
    return {
        "relaxation_rate": rates.relaxation_rate,
        "dephasing_rate": rates.dephasing_rate,
        "leakage_rate": rates.leakage_rate,
        "r2_relaxation": rates.r_squared[0],
        "r2_dephasing": rates.r_squared[1],
        "r2_leakage": rates.r_squared[2],
        "max_trace_drift": traj.max_trace_drift,
        "max_hermiticity_defect": traj.max_hermiticity_defect,
        "warnings": "; ".join(rates.warnings),
    }


def evaluate_sweep_points(kind: str, base: ScenarioConfig, values) -> list[dict]:
    """The rows of a ``kind`` sweep over ``base`` at grid ``values``, in
    grid order.  Their trajectories run as one batch, so the points must
    share the system: true of every kind but ``levels``."""
    rows = []
    batch = []  # (row, scenario) of each trajectory point
    for value in values:
        row = {"parameter": value, "config_hash": "", "status": "ok"}
        rows.append(row)
        try:
            point = _point_scenario(kind, base, value)
            row["config_hash"] = point.config_hash()
            if kind == "correlator":
                f_val = correlator(point.model, float(value))
                row.update({"re_f": f_val.real, "im_f": f_val.imag})
            elif kind in ("rpa-width", "rpa-area"):
                spec = point.system.build()
                result = delta_n_total(spec, point.model, point.state, point.rpa)
                row.update(
                    {
                        "n_total": result.n_total,
                        "delta_n": result.delta_n,
                        "ratio": result.ratio,
                        "warnings": "; ".join(result.warnings),
                    }
                )
            else:
                batch.append((row, point))
        except Exception as exc:  # failures stay in-row, sweep continues
            row["status"] = f"error: {exc}"
    if batch:
        _add_rate_columns(batch)
    return rows


def _add_rate_columns(batch: list[tuple[dict, ScenarioConfig]]) -> None:
    """Integrate the scenarios of ``batch``, which differ only in their
    spectral model, in one call, and fill in each row's rates."""
    try:
        first = batch[0][1]
        spec = first.system.build()
        rho0 = initial_density(first.state, spec.n_levels)
        trajectories = integrate_batch(spec, [point.model for _, point in batch], rho0,
                                       first.evolution)
    except Exception as exc:
        trajectories = [exc] * len(batch)
    for (row, point), traj in zip(batch, trajectories):
        try:
            if isinstance(traj, Exception):
                raise traj
            rates = extract_rates(traj, point.window)
            row.update(_rate_columns(rates, traj))
        except Exception as exc:  # failures stay in-row, sweep continues
            row["status"] = f"error: {exc}"


def run_sweep(sweep: SweepSpec) -> list[dict]:
    """Evaluate every grid point and return rows sorted by the swept
    parameter.  The trajectories of a ``spectral-area`` or
    ``spectral-center`` sweep run as one batch; a ``levels`` sweep, whose
    points differ in size, runs one point at a time."""
    if sweep.kind == "levels":
        rows = [row for value in sweep.grid
                for row in evaluate_sweep_points(sweep.kind, sweep.base, [value])]
    else:
        rows = evaluate_sweep_points(sweep.kind, sweep.base, sweep.grid)
    rows.sort(key=lambda r: r["parameter"])
    return rows


def write_sweep_csv(path: str | Path, sweep: SweepSpec, rows: list[dict]) -> None:
    """Write the sweep table plus a metadata sidecar with the base config."""
    path = Path(path)
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            out = []
            for key in columns:
                v = row.get(key, "")
                out.append(_fmt(v) if isinstance(v, float) else str(v))
            writer.writerow(out)
    sidecar = path.with_suffix(path.suffix + ".meta.ini")
    base_text = sweep.base.canonical_text()
    with open(sidecar, "w", newline="") as fh:
        fh.write("; sweep metadata\n")
        fh.write(f"; kind = {sweep.kind}\n")
        fh.write(f"; grid = {' '.join(_fmt(v) for v in sweep.grid)}\n")
        fh.write(f"; base_config_hash = {sweep.base.config_hash()}\n")
        fh.write(base_text)
