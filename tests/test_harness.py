import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mlsbath.cli import main
from mlsbath.evolve import Trajectory
from mlsbath.harness import (
    ConfigError,
    SweepSpec,
    load_config,
    run_scenario,
    run_sweep,
    run_trajectory,
    write_sweep_csv,
    write_trajectory_csv,
    _fmt,
    _point_scenario,
    _rate_columns,
)
from mlsbath.rates import extract_rates
from mlsbath.spectra import correlator_table, evaluate

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

BASE_CONFIG = """
[system]
kind = three-level

[spectrum]
kind = rectangular
area = 5.0
center = 4.0
width = 8.0

[evolution]
t_max = 0.5
dt = 0.005

[fit]
t_lo = 0.1
t_hi = 0.5
"""

RECTANGLE = "kind = rectangular\narea = 5.0\ncenter = 4.0\nwidth = 8.0"

POWER_GAUSSIAN_CONFIG = """
[system]
kind = three-level

[spectrum]
kind = power-gaussian
area = 10.0
ohmicity = -1
cutoff = 1.5

[evolution]
t_max = 0.5
dt = 0.01

[fit]
t_lo = 0.2
t_hi = 0.5

[table]
t_max = 2.5
dt = 0.01
omega_min = -2.0
omega_max = 6.0
points = 81
"""

# [system] sections swapped into BASE_CONFIG for the golden hashes of the
# kinds and key sets no committed config uses
SYSTEM_VARIANTS = {
    "custom": "kind = custom\nenergies = 0.5 0.5 2.5\ncoupling = 0 0.1 0; 0.1 0 0.1; 0 0.1 0",
    "two-level": "kind = two-level",
    "multilevel-flat": "kind = multilevel\nlevels = 5\nflat = true",
    "multilevel-flat-delta": "kind = multilevel\nlevels = 4\nflat = true\ndelta = 3.5",
}


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def per_point_row(kind, base, value):
    """The sweep row of one trajectory point from its own ``integrate``
    call: the reference for the batched sweep rows."""
    row = {"parameter": value, "config_hash": "", "status": "ok"}
    try:
        point = _point_scenario(kind, base, value)
        row["config_hash"] = point.config_hash()
        traj = run_trajectory(point)
        row.update(_rate_columns(extract_rates(traj, point.window), traj))
    except Exception as exc:
        row["status"] = f"error: {exc}"
    return row


class TestConfigParsing:
    def test_base_round_trip(self, tmp_path):
        scenario, sweep, table = load_config(write(tmp_path, BASE_CONFIG))
        assert scenario.system.kind == "three-level"
        assert scenario.model.area == 5.0
        assert scenario.evolution.dt == 0.005
        assert scenario.window.t_hi == 0.5
        assert sweep is None and table == {}

    def test_defaults_applied(self, tmp_path):
        text = "[system]\nkind = two-level\n[spectrum]\nkind = lorentzian\narea = 5\ncenter = 0\nwidth = 2\n"
        scenario, _, _ = load_config(write(tmp_path, text))
        assert scenario.evolution.dt == 0.001
        assert scenario.window.t_lo == 1.0
        assert abs(scenario.state.a) ** 2 == pytest.approx(0.1)

    def test_multilevel_system(self, tmp_path):
        text = BASE_CONFIG.replace(
            "kind = three-level", "kind = multilevel\nlevels = 6\ndelta = 8.0"
        )
        scenario, _, _ = load_config(write(tmp_path, text))
        spec = scenario.system.build()
        assert spec.n_levels == 6
        assert spec.coupling[0, 1] == pytest.approx(0.1 * np.exp(-1 / 8))

    def test_custom_system(self, tmp_path):
        text = BASE_CONFIG.replace(
            "kind = three-level",
            "kind = custom\nenergies = 0.5 0.5 2.5\ncoupling = 0 0.1 0; 0.1 0 0.1; 0 0.1 0",
        )
        scenario, _, _ = load_config(write(tmp_path, text))
        assert scenario.system.build().coupling[1, 2] == 0.1

    def test_asymmetric_coupling_rejected(self, tmp_path):
        text = BASE_CONFIG.replace(
            "kind = three-level",
            "kind = custom\nenergies = 0.5 0.5\ncoupling = 0 0.1; 0.2 0",
        )
        with pytest.raises(ConfigError, match="symmetric"):
            load_config(write(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write(tmp_path, BASE_CONFIG + "\n[rpa]\nbogus = 1\n"))

    @pytest.mark.parametrize(
        "old, new",
        [
            # center and width belong to the rectangle and the Lorentzian
            ("kind = rectangular\narea = 5.0\ncenter = 4.0\nwidth = 8.0",
             "kind = power-gaussian\narea = 5.0\nohmicity = 0\ncutoff = 2.0\n"
             "center = 7.0\nwidth = 3.0"),
            ("width = 8.0", "width = 8.0\ncutoff = 2.0"),
        ],
        ids=["power-gaussian-center-width", "rectangular-cutoff"],
    )
    def test_other_family_keys_rejected(self, tmp_path, old, new):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) .* in \[spectrum\]"):
            load_config(write(tmp_path, BASE_CONFIG.replace(old, new)))

    def test_unknown_spectrum_kind_named(self, tmp_path):
        text = BASE_CONFIG.replace("kind = rectangular", "kind = gaussian")
        with pytest.raises(ConfigError, match="unknown kind 'gaussian'"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize(
        "system, extra",
        [
            ("kind = three-level\nlevels = 7\nenergies = 1 2", "['energies', 'levels']"),
            ("kind = two-level\nflat = true", "['flat']"),
            ("kind = multilevel\nlevels = 4\ncoupling = 0 1; 1 0", "['coupling']"),
            ("kind = custom\nenergies = 0 1\ncoupling = 0 0.1; 0.1 0\ndelta = 8",
             "['delta']"),
        ],
        ids=["three-level", "two-level", "multilevel", "custom"],
    )
    def test_other_system_kind_keys_rejected(self, tmp_path, system, extra):
        path = write(tmp_path, BASE_CONFIG.replace("kind = three-level", system))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: unknown key(s) {extra} in [system]"

    def test_unknown_system_kind_named(self, tmp_path):
        text = BASE_CONFIG.replace("kind = three-level", "kind = five-level\nlevels = 7")
        with pytest.raises(ConfigError, match=r"\[system\] unknown kind 'five-level'"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("grid_log", ["0 10 3", "1 -10 3", "-1 10 3", "nan 10 3", "1 inf 3"])
    def test_log_grid_needs_positive_ends(self, tmp_path, grid_log):
        text = BASE_CONFIG + f"\n[sweep]\nkind = spectral-area\ngrid_log = {grid_log}\n"
        path = write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"start, stop > 0") as info:
                load_config(path)
        assert str(info.value).startswith(f"{path}: [sweep] grid_log = '{grid_log}' ")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("t_hi = 0.5", "t_hi = 0.5\n[sweep]\nkind = spectral-area\ngrid = 1 2 x",
             r"\[sweep\] grid = '1 2 x'"),
            ("t_hi = 0.5", "t_hi = 0.5\n[sweep]\nkind = spectral-area\ngrid_log = 1 10 3.5",
             r"\[sweep\] grid_log = '1 10 3.5'"),
            ("kind = three-level",
             "kind = custom\nenergies = 0 0 x\ncoupling = 0 0.1 0; 0.1 0 0.1; 0 0.1 0",
             r"\[system\] energies = '0 0 x'"),
            ("t_hi = 0.5", "t_hi = 0.5\n[state]\na = 1.0", r"\[state\] missing required key 'b'"),
            ("width = 8.0", "width = inf", r"\[spectrum\] width = 'inf' is not finite$"),
            ("center = 4.0", "center = nan", r"\[spectrum\] center = 'nan' is not finite$"),
            ("area = 5.0", "area = inf", r"\[spectrum\] area = 'inf' is not finite$"),
            ("t_max = 0.5\ndt", "t_max = inf\ndt", r"\[evolution\] t_max = 'inf' is not finite$"),
            ("dt = 0.005", "dt = nan", r"\[evolution\] dt = 'nan' is not finite$"),
            ("t_hi = 0.5", "t_hi = 0.5\n[state]\na = nan\nb = 1",
             r"\[state\] a = 'nan' is not finite$"),
            ("t_hi = 0.5", "t_hi = 0.5\n[state]\na = 1\nb = 0+infj",
             r"\[state\] b = '0\+infj' is not finite$"),
            # NaN must not stand in for an absent delta
            ("kind = three-level", "kind = multilevel\nlevels = 4\ndelta = nan",
             r"\[system\] delta = 'nan' is not finite$"),
            ("kind = three-level", "kind = custom\nenergies = 0 nan\ncoupling = 0 0.1; 0.1 0",
             r"\[system\] energies = '0 nan' is not finite$"),
            ("kind = three-level", "kind = custom\nenergies = 0 1\ncoupling = 0 inf; inf 0",
             r"\[system\] coupling = '0 inf; inf 0' is not finite$"),
            ("t_hi = 0.5", "t_hi = 0.5\n[sweep]\nkind = spectral-area\ngrid = 1 inf",
             r"\[sweep\] grid = '1 inf' is not finite$"),
            ("t_hi = 0.5", "t_hi = 0.5\n[table]\nt_max = inf",
             r"\[table\] t_max = 'inf' is not finite$"),
            # 0 would write a header-only table, -3 numpy's unnamed error
            ("t_hi = 0.5", "t_hi = 0.5\n[table]\npoints = 0",
             r"\[table\] points = '0' is not a valid positive integer$"),
            ("t_hi = 0.5", "t_hi = 0.5\n[table]\npoints = -3",
             r"\[table\] points = '-3' is not a valid positive integer$"),
            ("t_hi = 0.5", "t_hi = 0.5\n[table]\ndt = -0.1",
             r"\[table\] dt = -0\.1 must be positive$"),
            ("t_hi = 0.5", "t_hi = 0.5\n[table]\ndt = 0",
             r"\[table\] dt = 0\.0 must be positive$"),
            # t_max from [evolution] (0.5) is below the table's dt
            ("t_hi = 0.5", "t_hi = 0.5\n[table]\ndt = 0.6",
             r"\[table\] t_max = 0\.5 \(default\) must be at least dt = 0\.6$"),
            # dt from [evolution] (0.005) is above the table's t_max
            ("t_hi = 0.5", "t_hi = 0.5\n[table]\nt_max = 0.0001",
             r"\[table\] t_max = 0\.0001 must be at least dt = 0\.005 \(default\)$"),
            ("t_hi = 0.5", "t_hi = 0.5\n[table]\nomega_min = 5\nomega_max = 1",
             r"\[table\] omega_min = 5\.0 must be below omega_max = 1\.0$"),
            ("t_hi = 0.5", "t_hi = 0.5\n[table]\nomega_min = 3\nomega_max = 3",
             r"\[table\] omega_min = 3\.0 must be below omega_max = 3\.0$"),
            # the rectangle's window() is [-6, 14]
            ("t_hi = 0.5", "t_hi = 0.5\n[table]\nomega_min = 20",
             r"\[table\] omega_min = 20\.0 must be below omega_max = 14\.0 \(default\)$"),
            ("t_hi = 0.5", "t_hi = 0.5\n[table]\nomega_max = -7",
             r"\[table\] omega_min = -6\.0 \(default\) must be below omega_max = -7\.0$"),
        ],
        ids=["grid", "grid_log", "energies", "state-without-b", "inf-width", "nan-center",
             "inf-area", "inf-t_max", "nan-dt", "nan-state-a", "inf-state-b", "nan-delta",
             "nan-energies", "inf-coupling", "inf-grid", "inf-table-t_max", "zero-points",
             "negative-points", "negative-table-dt", "zero-table-dt", "table-dt-above-t_max",
             "table-t_max-below-dt", "descending-omega", "equal-omega",
             "omega_min-above-window", "omega_max-below-window"],
    )
    def test_malformed_value_names_file_section_and_key(self, tmp_path, old, new, message):
        path = write(tmp_path, BASE_CONFIG.replace(old, new))
        with pytest.raises(ConfigError, match=message) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_center_sweep_needs_a_center(self, tmp_path):
        text = POWER_GAUSSIAN_CONFIG + "\n[sweep]\nkind = spectral-center\ngrid = 0 1\n"
        with pytest.raises(ConfigError, match="with a center, not power-gaussian"):
            load_config(write(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path, BASE_CONFIG + "\n[extra]\nx = 1\n"))

    def test_bad_type_names_section_and_key(self, tmp_path):
        bad = BASE_CONFIG.replace("area = 5.0", "area = lots")
        with pytest.raises(ConfigError, match=r"\[spectrum\] area"):
            load_config(write(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_state_override(self, tmp_path):
        text = BASE_CONFIG + "\n[state]\na = 1.0\nb = 0.0\n"
        scenario, _, _ = load_config(write(tmp_path, text))
        assert scenario.state.a == 1.0

    def test_sweep_section(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nkind = spectral-area\ngrid = 1 2 5\n"
        _, sweep, _ = load_config(write(tmp_path, text))
        assert sweep.kind == "spectral-area"
        assert sweep.grid == (1.0, 2.0, 5.0)

    def test_sweep_log_grid(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nkind = spectral-area\ngrid_log = 1 100 3\n"
        _, sweep, _ = load_config(write(tmp_path, text))
        assert sweep.grid == pytest.approx((1.0, 10.0, 100.0))

    def test_non_monotone_grid_rejected(self, tmp_path):
        text = BASE_CONFIG + "\n[sweep]\nkind = spectral-area\ngrid = 1 5 2\n"
        with pytest.raises(ConfigError, match="monotone"):
            load_config(write(tmp_path, text))

    def test_config_hash_stable(self, tmp_path):
        s1, _, _ = load_config(write(tmp_path, BASE_CONFIG, "a.ini"))
        s2, _, _ = load_config(write(tmp_path, BASE_CONFIG, "b.ini"))
        assert s1.config_hash() == s2.config_hash()
        assert len(s1.config_hash()) == 16

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("area_sweep", "71a368f9289b5741"),
            ("baseline_run", "8a5c51e5eca213d3"),
            ("center_sweep", "0166538834abaf74"),
            ("correlator_table", "a206e790b8c94873"),
            ("levels_sweep", "a4b4dab13e0d4876"),
            ("rpa_area_sweep", "bfb0c02d91be6d22"),
            ("rpa_point", "94e451075ea90ad4"),
            ("rpa_width_sweep", "94e451075ea90ad4"),
            ("power_gaussian", "03dc635af53b9d65"),
            ("custom", "4797cf09d7dc1bba"),
            ("two-level", "fd9872db4fb4b791"),
            ("multilevel-flat", "578599b78b420199"),
            ("multilevel-flat-delta", "e49d17f32273061b"),
        ],
    )
    def test_config_hash_golden(self, tmp_path, name, expected):
        # every output file carries this hash, so its text must not drift
        if name == "power_gaussian":
            path = write(tmp_path, POWER_GAUSSIAN_CONFIG)
        elif name in SYSTEM_VARIANTS:
            path = write(tmp_path, BASE_CONFIG.replace("kind = three-level", SYSTEM_VARIANTS[name]))
        else:
            path = CONFIGS / f"{name}.ini"
        scenario, _, _ = load_config(path)
        assert scenario.config_hash() == expected


class TestRunScenario:
    def test_outputs_and_determinism(self, tmp_path):
        scenario, _, _ = load_config(write(tmp_path, BASE_CONFIG))
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        run_scenario(scenario, out1)
        run_scenario(scenario, out2)
        t1 = (out1 / "trajectory.csv").read_bytes()
        t2 = (out2 / "trajectory.csv").read_bytes()
        assert t1 == t2
        assert (out1 / "rates.json").read_bytes() == (out2 / "rates.json").read_bytes()

    def test_trajectory_row_count_and_header(self, tmp_path):
        scenario, _, _ = load_config(write(tmp_path, BASE_CONFIG))
        out = tmp_path / "out"
        run_scenario(scenario, out)
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 101  # header + n_steps + 1
        header = lines[0].split(",")
        assert header[0] == "t"
        assert "re_rho_1_1" in header and "im_rho_2_3" in header
        assert header[-3:] == ["population_2", "coherence_12", "leakage"]

    def test_relaxation_rate_positive(self, tmp_path):
        scenario, _, _ = load_config(write(tmp_path, BASE_CONFIG))
        out = tmp_path / "out"
        traj, rates = run_scenario(scenario, out)
        assert (out / "trajectory.csv").exists()
        assert rates.relaxation_rate > 0

    def test_rates_json_fields(self, tmp_path):
        scenario, _, _ = load_config(write(tmp_path, BASE_CONFIG))
        out = tmp_path / "out"
        _, rates = run_scenario(scenario, out)
        payload = json.loads((out / "rates.json").read_text())
        assert payload["relaxation_rate"] == rates.relaxation_rate
        assert len(payload["r_squared"]) == 3
        assert payload["config_hash"] == scenario.config_hash()
        # rectangular eps * t_max = 4 runs on exponential modes
        assert payload["history_modes"] > 0
        assert 0.0 <= payload["mode_error"] <= 1e-12 * 5.0

    def test_full_precision_round_trip(self, tmp_path):
        scenario, _, _ = load_config(write(tmp_path, BASE_CONFIG))
        out = tmp_path / "out"
        traj, _ = run_scenario(scenario, out)
        lines = (out / "trajectory.csv").read_text().splitlines()
        last = lines[-1].split(",")
        assert float(last[0]) == traj.times[-1]
        assert float(last[-3]) == traj.population_2[-1]


class TestSweeps:
    def make_sweep(self, tmp_path, kind="spectral-area", grid="2 5", extra=""):
        text = BASE_CONFIG + f"\n[sweep]\nkind = {kind}\ngrid = {grid}\n" + extra
        _, sweep, _ = load_config(write(tmp_path, text))
        return sweep

    def test_row_per_point_sorted(self, tmp_path):
        sweep = self.make_sweep(tmp_path, grid="5 2".replace(" ", " "))
        # descending grid still yields ascending rows
        sweep = SweepSpec(kind=sweep.kind, grid=(5.0, 2.0), base=sweep.base)
        rows = run_sweep(sweep)
        assert [r["parameter"] for r in rows] == [2.0, 5.0]
        assert all(r["status"] == "ok" for r in rows)

    @pytest.mark.parametrize(
        "spectrum, kind, grid",
        [
            (RECTANGLE, "spectral-area", "0.5 2 5 8"),
            (RECTANGLE, "spectral-center", "0 1.5 3 4.5"),
            ("kind = lorentzian\narea = 5.0\ncenter = 1.5\nwidth = 2.0", "spectral-area", "1 4 9"),
            ("kind = power-gaussian\narea = 5.0\nohmicity = 0\ncutoff = 2.0",
             "spectral-area", "1 4 9"),
        ],
        ids=["rectangle-area", "rectangle-center", "lorentzian-area", "power-gaussian-area"],
    )
    def test_batched_rows_match_per_point(self, tmp_path, spectrum, kind, grid):
        text = BASE_CONFIG.replace(RECTANGLE, spectrum) + f"\n[sweep]\nkind = {kind}\ngrid = {grid}\n"
        _, sweep, _ = load_config(write(tmp_path, text))
        rows = run_sweep(sweep)
        expected = [per_point_row(kind, sweep.base, value) for value in sweep.grid]
        assert all(row["status"] == "ok" for row in rows)
        if "power-gaussian" in spectrum:
            # the full history: a stacked product may round differently
            assert [row.keys() for row in rows] == [row.keys() for row in expected]
            for row, ref in zip(rows, expected):
                for key, value in row.items():
                    if isinstance(value, float):
                        assert value == pytest.approx(ref[key], rel=1e-13, abs=1e-300), key
                    else:
                        assert value == ref[key]
        else:
            assert rows == expected

    def test_failed_point_keeps_neighbours(self, tmp_path):
        text = BASE_CONFIG.replace("width = 8.0", "width = 100.0").replace(
            "dt = 0.005", "dt = 0.002"
        )
        _, sweep, _ = load_config(
            write(tmp_path, text + "\n[sweep]\nkind = spectral-area\ngrid = 2 5 1e150\n")
        )
        rows = run_sweep(sweep)
        assert rows == [per_point_row(sweep.kind, sweep.base, value) for value in sweep.grid]
        assert [row["status"] for row in rows[:2]] == ["ok", "ok"]
        assert re.fullmatch(r"error: trace drift \S+ exceeds 0.0001 at step 1 \(t = 0.002\)",
                            rows[2]["status"])

    def test_sweep_csv_and_sidecar(self, tmp_path):
        sweep = self.make_sweep(tmp_path, grid="2 5")
        rows = run_sweep(sweep)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep, rows)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].split(",")[0] == "parameter"
        sidecar = (tmp_path / "sweep.csv.meta.ini").read_text()
        assert sweep.base.config_hash() in sidecar
        assert "[spectrum]" in sidecar

    def test_point_failure_recorded_in_row(self, tmp_path):
        sweep = self.make_sweep(tmp_path, grid="2 5")
        sweep = SweepSpec(kind=sweep.kind, grid=(-1.0, 5.0), base=sweep.base)
        rows = run_sweep(sweep)
        assert rows[0]["status"].startswith("error")
        assert rows[1]["status"] == "ok"

    def test_correlator_sweep(self, tmp_path):
        sweep = self.make_sweep(tmp_path, kind="correlator", grid="0 0.5 1.0")
        rows = run_sweep(sweep)
        assert rows[0]["re_f"] == pytest.approx(5.0)
        assert {"re_f", "im_f"} <= set(rows[1])

    def test_rpa_sweep(self, tmp_path):
        text = BASE_CONFIG.replace("center = 4.0", "center = 8.0").replace(
            "width = 8.0", "width = 1.0"
        )
        text += "\n[rpa]\nladder = 3\nscan_points = 2000\n[sweep]\nkind = rpa-area\ngrid = 5 15\n"
        _, sweep, _ = load_config(write(tmp_path, text))
        rows = run_sweep(sweep)
        assert all(r["status"] == "ok" for r in rows)
        assert rows[1]["n_total"] > rows[0]["n_total"]

    def test_levels_sweep_requires_multilevel(self, tmp_path):
        with pytest.raises(ConfigError, match="multilevel"):
            self.make_sweep(tmp_path, kind="levels", grid="2 3")

    def test_levels_sweep(self, tmp_path):
        text = BASE_CONFIG.replace(
            "kind = three-level", "kind = multilevel\nlevels = 3\nflat = true"
        )
        text += "\n[sweep]\nkind = levels\ngrid = 2 3\n"
        _, sweep, _ = load_config(write(tmp_path, text))
        rows = run_sweep(sweep)
        assert all(r["status"] == "ok" for r in rows)

    def test_levels_sweep_needs_integer_grid(self, tmp_path):
        # rounding would run 2.5 as M = 2 under M = 2's hash, and 3.5 as M = 4
        text = BASE_CONFIG.replace(
            "kind = three-level", "kind = multilevel\nlevels = 3\nflat = true"
        )
        text += "\n[sweep]\nkind = levels\ngrid = 2 2.5 3.5\n"
        with pytest.raises(ConfigError, match=r"levels sweep grid holds a non-integer 2\.5$"):
            load_config(write(tmp_path, text))

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep kind"):
            self.make_sweep(tmp_path, kind="nonsense")


class TestCli:
    def test_evolve_and_rates(self, tmp_path):
        cfg = write(tmp_path, BASE_CONFIG)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0
        assert (tmp_path / "e" / "trajectory.csv").exists()
        assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "rates.json").exists()

    @pytest.mark.parametrize("flag", ["--dt", "--tmax"])
    @pytest.mark.parametrize("command", ["evolve", "rates", "correlator-table"])
    def test_no_step_or_end_time_flags(self, tmp_path, capsys, command, flag):
        # [evolution] dt and t_max come only from the config file
        cfg = write(tmp_path, BASE_CONFIG)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(cfg), "--out", str(out), flag, "0.01"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 0.01" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_command(self, tmp_path):
        cfg = write(tmp_path, BASE_CONFIG + "\n[sweep]\nkind = spectral-area\ngrid = 2 5\n")
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        assert (out / "sweep.csv.meta.ini").exists()

    def test_no_threads_flag(self, tmp_path, capsys):
        # a sweep's points run as one batch in one process
        cfg = write(tmp_path, BASE_CONFIG + "\n[sweep]\nkind = spectral-area\ngrid = 2 5\n")
        out = tmp_path / "s"
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(cfg), "--out", str(out), "--threads", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_without_section_fails(self, tmp_path):
        cfg = write(tmp_path, BASE_CONFIG)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    def test_correlator_table(self, tmp_path):
        cfg = write(tmp_path, BASE_CONFIG + "\n[table]\nt_max = 0.2\ndt = 0.05\n")
        out = tmp_path / "c"
        assert main(["correlator-table", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "correlator.csv").read_text().splitlines()
        assert lines[0] == "tau,re_f,im_f"
        assert len(lines) == 1 + 5
        assert float(lines[1].split(",")[1]) == pytest.approx(5.0)

    def test_spectrum_table(self, tmp_path):
        cfg = write(tmp_path, BASE_CONFIG + "\n[table]\nomega_min = 0\nomega_max = 8\npoints = 9\n")
        out = tmp_path / "sp"
        assert main(["spectrum-table", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "omega,intensity"
        assert len(lines) == 10

    def test_rpa_command(self, tmp_path):
        text = BASE_CONFIG.replace("center = 4.0", "center = 8.0").replace(
            "width = 8.0", "width = 1.0"
        ) + "\n[rpa]\nladder = 3\nscan_points = 2000\n"
        cfg = write(tmp_path, text)
        out = tmp_path / "rpa"
        assert main(["rpa", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "rpa.json").read_text())
        assert payload["n_total"] > 0
        assert payload["delta_n"] > 0

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        cfg = write(tmp_path, BASE_CONFIG.replace("area = 5.0", "area = -1"))
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "error" in capsys.readouterr().err


class TestFormatting:
    def test_fmt_is_full_precision(self):
        x = 0.1 + 0.2
        assert float(_fmt(x)) == x
        assert float(_fmt(1.0 / 3.0)) == 1.0 / 3.0


def write_trajectory_csv_per_value(path, traj):
    """csv.writer with one _fmt call per value: the byte reference for
    the column-array writer."""
    m = traj.states.shape[1]
    pairs = [(n, r) for n in range(m) for r in range(n, m)]
    header = ["t"]
    for n, r in pairs:
        header += [f"re_rho_{n + 1}_{r + 1}", f"im_rho_{n + 1}_{r + 1}"]
    header += ["population_2", "coherence_12", "leakage"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        pop, coh, leak = traj.population_2, traj.coherence_12, traj.leakage
        for k, t in enumerate(traj.times):
            row = [_fmt(t)]
            for n, r in pairs:
                z = traj.states[k, n, r]
                row += [_fmt(z.real), _fmt(z.imag)]
            row += [_fmt(pop[k]), _fmt(coh[k]), _fmt(leak[k])]
            writer.writerow(row)


def write_correlator_csv_per_value(path, values, dt):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tau", "re_f", "im_f"])
        for k, z in enumerate(values):
            writer.writerow([_fmt(k * dt), _fmt(z.real), _fmt(z.imag)])


def write_spectrum_csv_per_value(path, omegas, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["omega", "intensity"])
        for w, v in zip(omegas, values):
            writer.writerow([_fmt(w), _fmt(v)])


class TestTrajectoryCsvBytes:
    def test_matches_per_value_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        shape = (400, 4, 4)
        scale = 10.0 ** rng.integers(-320, 300, size=shape)
        states = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
        states[1, 0, 0] = complex(-0.0, np.nan)
        states[2, 1, 1] = complex(np.inf, -np.inf)
        states[3, 0, 1] = complex(5e-324, -2.2250738585072014e-308)
        traj = Trajectory(times=np.arange(400) * 1e-3, states=states)
        write_trajectory_csv(tmp_path / "fast.csv", traj)
        write_trajectory_csv_per_value(tmp_path / "ref.csv", traj)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_matches_per_value_writer_on_a_run(self, tmp_path):
        scenario, _, _ = load_config(write(tmp_path, BASE_CONFIG))
        traj, _ = run_scenario(scenario, tmp_path / "out")
        write_trajectory_csv_per_value(tmp_path / "ref.csv", traj)
        assert (tmp_path / "out" / "trajectory.csv").read_bytes() == (
            tmp_path / "ref.csv"
        ).read_bytes()

    def test_tables_match_per_value_writer(self, tmp_path):
        # a power-Gaussian correlator, and a spectrum that is exactly zero
        # on the omega <= 0 part of its grid
        cfg = write(tmp_path, POWER_GAUSSIAN_CONFIG)
        scenario, _, _ = load_config(cfg)
        out = tmp_path / "out"
        assert main(["correlator-table", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["spectrum-table", "--config", str(cfg), "--out", str(out)]) == 0
        values = correlator_table(scenario.model, 2.5, 0.01)
        write_correlator_csv_per_value(tmp_path / "correlator.csv", values, 0.01)
        omegas = np.linspace(-2.0, 6.0, 81)
        intensity = np.asarray(evaluate(scenario.model, omegas), dtype=float)
        assert np.count_nonzero(intensity == 0.0) == 21
        write_spectrum_csv_per_value(tmp_path / "spectrum.csv", omegas, intensity)
        for name in ("correlator.csv", "spectrum.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
