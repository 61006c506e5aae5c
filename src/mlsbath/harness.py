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
``[fit]``         t_lo, t_hi; a window that ends past the grid's last
                  point, n_steps * dt, fails a ``rates`` run or a
                  trajectory sweep point before any stepping
``[rpa]``         pole_shift, ladder, omega_max, scan_points
``[table]``       t_max >= dt > 0 (correlator table); omega_min < omega_max,
                  points >= 1 (spectrum table); an absent key takes its
                  value from ``[evolution]``, the family's window(), or
                  501 points
``[sweep]``
    kind = spectral-center | spectral-area | levels | correlator |
           rpa-width | rpa-area
    grid = v1 v2 v3 ...       (strictly monotone; integers for levels)
    grid_log = start stop count   (log-spaced alternative)

Outputs
-------
CSV files carry a header row, comma separators, LF line endings and
full double precision: every float is the text ``'%.17g' % x`` gives,
17 significant digits, so repeated runs are byte-identical.
``rates.json`` and ``rpa.json`` hold a result record
(:func:`rates_record`, :func:`rpa_record`) plus the config hash.  Sweeps
write a ``*.meta.ini`` sidecar echoing the resolved base configuration
and its hash; every row carries the per-point config hash and the same
record, its r² split into three columns and its warnings joined by
"; ".  Failed sweep points are recorded in-row in the ``status`` column
and do not stop the sweep.  Trajectory points that share a system step
together as one batch (:func:`~mlsbath.evolve.integrate_batch`): all of
a ``spectral-area`` or ``spectral-center`` sweep, one M of a ``levels``
sweep.  Their rows are the bytes one run per point would give.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
from dataclasses import dataclass, replace
from itertools import groupby
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
from .rpa import FluctuationResult, RpaConfig, delta_n_total
from .spectra import FAMILIES, SpectralModel, correlator

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepSpec",
    "load_config",
    "rates_record",
    "rpa_record",
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


class SweepError(ConfigError):
    """A sweep that cannot run; ``key`` names the field at fault, kind or grid."""

    def __init__(self, key: str, reason: str):
        super().__init__(reason)
        self.key = key


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
            raise SweepError("kind",
                             f"unknown sweep kind {self.kind!r}, expected one of {SWEEP_KINDS}")
        if len(self.grid) == 0:
            raise SweepError("grid", "sweep grid must be non-empty")
        diffs = np.diff(self.grid)
        if len(self.grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise SweepError("grid", "sweep grid must be strictly monotone")
        if self.kind == "levels":
            if self.base.system.kind != "multilevel":
                raise SweepError("kind", "levels sweep requires a multilevel base system")
            for value in self.grid:
                if not float(value).is_integer():
                    raise SweepError("grid", f"levels sweep grid holds a non-integer {_fmt(value)}")
        if self.kind == "spectral-center" and "center" not in self.base.model.ini_keys:
            raise SweepError("kind", "spectral-center sweep needs a spectrum with a center, "
                                     f"not {self.base.model.kind}")


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
    the resolved ``[table]`` options.  Schema violations raise ConfigError
    naming the file, section and key."""
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

    # an absent optional section reads as empty: each key takes its default
    parser.read_dict({name: {} for name in (*_SECTIONS, "table")})
    sections = {}
    for name, (field, cls, keys) in _SECTIONS.items():
        default = cls()
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

    sweep = _parse_sweep(parser["sweep"], scenario, str(path)) if "sweep" in parser else None
    return scenario, sweep, _parse_table(parser["table"], scenario, str(path))


def _parse_sweep(sec, base: ScenarioConfig, path: str) -> SweepSpec:
    kind = _typed(sec, "kind", str, path=path)
    if "grid" in sec and "grid_log" in sec:
        raise ConfigError(f"{path}: [sweep] grid = {sec['grid']!r}: "
                          f"grid and grid_log = {sec['grid_log']!r} both given; give one")
    if "grid_log" in sec:
        grid = _typed(sec, "grid_log", _log_grid, path=path,
                      what="'start stop count' with start, stop > 0 and an integer count")
    elif "grid" in sec:
        grid = _typed(sec, "grid", lambda raw: _numbers(raw.replace(",", " ")),
                      path=path, what="list of numbers")
    else:
        raise ConfigError(f"{path}: [sweep] needs grid or grid_log")
    try:
        return SweepSpec(kind=kind, grid=grid, base=base)
    except SweepError as exc:
        key = "grid_log" if exc.key == "grid" and "grid_log" in sec else exc.key
        raise ConfigError(f"{path}: [sweep] {key} = {sec[key]!r}: {exc}") from exc


def _parse_table(sec, scenario: ScenarioConfig, path: str) -> dict:
    """``[table]`` with each absent key resolved, and range-checked: from
    ``[evolution]``, the family's ``window()``, or 501 points."""
    lo, hi = scenario.model.window()
    table = {
        "t_max": _typed(sec, "t_max", float, scenario.evolution.t_max, path=path),
        "dt": _typed(sec, "dt", float, scenario.evolution.dt, path=path),
        "omega_min": _typed(sec, "omega_min", float, lo, path=path),
        "omega_max": _typed(sec, "omega_max", float, hi, path=path),
        "points": _typed(sec, "points", _count, 501, path=path),
    }

    def text(key: str) -> str:
        return f"{key} = {float(table[key])!r}" + ("" if key in sec else " (default)")

    if table["dt"] <= 0:
        raise ConfigError(f"{path}: [table] {text('dt')} must be positive")
    if table["t_max"] < table["dt"]:
        raise ConfigError(f"{path}: [table] {text('t_max')} must be at least {text('dt')}")
    if not table["omega_min"] < table["omega_max"]:
        raise ConfigError(f"{path}: [table] {text('omega_min')} must be below {text('omega_max')}")
    return table


# --- scenario run ------------------------------------------------------------


def run_trajectory(scenario: ScenarioConfig) -> Trajectory:
    spec = scenario.system.build()
    rho0 = initial_density(scenario.state, spec.n_levels)
    return integrate(spec, scenario.model, rho0, scenario.evolution)


def _check_fit_window(scenario: ScenarioConfig) -> None:
    """Raise the fit's ValueError before any stepping when the fit window
    ends past the grid's last point, n_steps * dt, which falls short of
    t_max when t_max is not a multiple of dt."""
    evolution = scenario.evolution
    scenario.window.check_sampled(0.0, evolution.n_steps * evolution.dt)


def run_scenario(scenario: ScenarioConfig, out_dir: str | Path) -> tuple[Trajectory, RateSet]:
    """Integrate and fit ``scenario`` (from :func:`load_config`), and write
    ``trajectory.csv`` and ``rates.json`` into ``out_dir``."""
    _check_fit_window(scenario)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj = run_trajectory(scenario)
    rates = extract_rates(traj, scenario.window)
    write_trajectory_csv(out / "trajectory.csv", traj)
    write_rates_json(out / "rates.json", rates, traj, scenario)
    return traj, rates


# rows formatted at a time: a chunk's working arrays stay in cache.  Of
# 64 to 5 001 rows, 192-256 wrote a 5 001 x 16 table fastest (2-vCPU Xeon)
CSV_CHUNK_ROWS = 256


def write_columns_csv(path: str | Path, header: list[str], columns: list) -> None:
    """A header row, then row k holding element k of every float column.

    Each float x is written as the bytes of ``'%.17g' % x``: 17 significant
    digits, which read back as the same double.  :mod:`mlsbath.csvtext`
    formats ``CSV_CHUNK_ROWS`` rows at a time in numpy: the digits are
    round(|x| * 10**(16 - k)) for k = floor(log10|x|), from a double-double
    product whose error, below 4e-15, cannot move the rounding of a value
    whose fractional part lies farther than 1e-12 from 1/2.  '%.17g' itself
    formats the values that bound does not cover: exact ties and near-ties,
    non-finite values, subnormals, |x| outside [1e-280, 1e280), and an
    estimate of k off by one."""
    # imported here, so that importing the package and runs that write no
    # CSV (rpa) do not compile it
    from .csvtext import csv_rows

    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            chunk = slice(start, start + CSV_CHUNK_ROWS)
            fh.write(csv_rows(np.column_stack([column[chunk] for column in columns])))


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


def rates_record(rates: RateSet, traj: Trajectory) -> dict:
    """The result fields of ``rates.json`` and of a trajectory sweep row.
    Their order is the sweep row's column order (``rates.json`` sorts)."""
    return {
        "relaxation_rate": rates.relaxation_rate,
        "dephasing_rate": rates.dephasing_rate,
        "leakage_rate": rates.leakage_rate,
        "r_squared": list(rates.r_squared),
        "max_trace_drift": traj.max_trace_drift,
        "max_hermiticity_defect": traj.max_hermiticity_defect,
        "history_modes": traj.history_modes,
        "mode_error": traj.mode_error,
        "warnings": list(rates.warnings),
    }


def rpa_record(result: FluctuationResult) -> dict:
    """The result fields of ``rpa.json`` and of an ``rpa-*`` sweep row."""
    return {
        "n_total": result.n_total,
        "delta_n": result.delta_n,
        "ratio": result.ratio,
        "warnings": list(result.warnings),
    }


def write_rates_json(
    path: str | Path, rates: RateSet, traj: Trajectory, scenario: ScenarioConfig
) -> None:
    write_json(path, {**rates_record(rates, traj), "config_hash": scenario.config_hash()})


# --- sweeps ------------------------------------------------------------------


def _point_scenario(kind: str, base: ScenarioConfig, value: float) -> ScenarioConfig:
    if kind == "correlator":
        return base
    if kind == "levels":
        values = {**base.system.values, "n_levels": int(value)}
        return replace(base, system=replace(base.system, values=values))
    ini_keys = base.model.ini_keys
    # rpa-width sweeps the family's last key: its width, or cutoff
    key = {"spectral-center": "center", "rpa-width": list(ini_keys)[-1]}.get(kind, "area")
    return replace(base, model=replace(base.model, **{ini_keys[key]: value}))


def _row_columns(record: dict) -> dict:
    """A result record as sweep-row columns: r² split into one column per
    observable, warnings joined by "; "."""
    row = {}
    for key, value in record.items():
        if key == "r_squared":
            row.update(zip(("r2_relaxation", "r2_dephasing", "r2_leakage"), value))
        elif key == "warnings":
            row[key] = "; ".join(value)
        else:
            row[key] = value
    return row


def run_sweep(sweep: SweepSpec) -> list[dict]:
    """Evaluate every grid point and return rows sorted by the swept
    parameter.  A row holds the parameter, the point's config hash, its
    status and the columns of its result record (:func:`rates_record` or
    :func:`rpa_record`).  Trajectory points run in batches of consecutive
    points that share a system: all of a ``spectral-area`` or
    ``spectral-center`` sweep in one batch, a ``levels`` sweep one batch
    per M.  A point whose fit window ends past its grid is an error row
    and does not step."""
    rows = []
    trajectory_points = []  # (row, scenario) of each trajectory point
    for value in sweep.grid:
        row = {"parameter": value, "config_hash": "", "status": "ok"}
        rows.append(row)
        try:
            point = _point_scenario(sweep.kind, sweep.base, value)
            row["config_hash"] = point.config_hash()
            if sweep.kind == "correlator":
                f_val = correlator(point.model, float(value))
                row.update({"re_f": f_val.real, "im_f": f_val.imag})
            elif sweep.kind in ("rpa-width", "rpa-area"):
                spec = point.system.build()
                result = delta_n_total(spec, point.model, point.state, point.rpa)
                row.update(_row_columns(rpa_record(result)))
            else:
                _check_fit_window(point)
                trajectory_points.append((row, point))
        except Exception as exc:  # failures stay in-row, sweep continues
            row["status"] = f"error: {exc}"
    # SystemChoice holds a dict, so group on equality rather than a hash; the
    # points of a group differ only in their spectral model
    for _, group in groupby(trajectory_points, key=lambda row_point: row_point[1].system):
        batch = list(group)
        first = batch[0][1]
        try:
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
                row.update(_row_columns(rates_record(rates, traj)))
            except Exception as exc:  # failures stay in-row, sweep continues
                row["status"] = f"error: {exc}"
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
