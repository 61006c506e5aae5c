import os
import subprocess
import sys
from pathlib import Path

import mlsbath


def test_import_loads_no_quadrature():
    # rpa imports scipy's quad and brentq where it calls them, so a process
    # that only integrates trajectories never loads either subpackage
    code = (
        "import sys, mlsbath\n"
        "print(sorted(m for m in sys.modules if m in ('scipy.integrate', 'scipy.optimize')))"
    )
    src = str(Path(mlsbath.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
