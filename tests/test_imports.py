import os
import subprocess
import sys
from pathlib import Path

import pytest

import mlsbath

ROOT = Path(mlsbath.__file__).resolve().parents[2]
LOADED = "print(sorted(m for m in sys.modules if m in ('scipy.integrate', 'scipy.optimize')))"


def _fresh(code: str, *args: str) -> str:
    """The last line a fresh interpreter prints after running ``code``."""
    done = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + LOADED, *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()[-1]


def test_import_loads_no_quadrature():
    assert _fresh("import mlsbath\n") == "[]"


@pytest.mark.parametrize(
    "code",
    [
        "from mlsbath import Rectangular, build_three_level, default_initial_state, delta_n_total\n"
        "delta_n_total(build_three_level(), Rectangular(5.0, 2.0, 1.0), default_initial_state())\n",
        "from mlsbath.cli import main\n"
        "assert main(['rpa', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n",
    ],
    ids=["delta_n_total", "cli-rpa"],
)
def test_rpa_loads_no_quadrature(code, tmp_path):
    # the channel integrals and their root search run on numpy alone
    config = ROOT / "demos" / "configs" / "rpa_point.ini"
    assert _fresh(code, str(config), str(tmp_path)) == "[]"
