"""Smoke test: the quick demos run to completion against the package.

Each demo runs as its own process in an empty directory, so a removed or
renamed name they import shows up here.  ``05_verification_figures.py``
(about 11 s) is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import exitgrid

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_absorbed_density.py",
    "02_exit_time_law.py",
    "03_renewal_and_error_density.py",
    "04_monte_carlo_tracking.py",
])
def test_demo_runs(tmp_path, name):
    src = str(Path(exitgrid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "MPLBACKEND": "Agg"}
    run = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
