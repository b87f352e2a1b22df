"""Smoke test: the quick demos and the README's library tour run against the package.

Each runs as its own process in an empty directory, so a removed or
renamed name they use shows up here.  ``05_verification_figures.py``
(about 11 s) is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import exitgrid

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_python(tmp_path, *args):
    src = str(Path(exitgrid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "MPLBACKEND": "Agg"}
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", [
    "01_absorbed_density.py",
    "02_exit_time_law.py",
    "03_renewal_and_error_density.py",
    "04_monte_carlo_tracking.py",
])
def test_demo_runs(tmp_path, name):
    run = run_python(tmp_path, str(DEMOS / name))
    assert run.returncode == 0, run.stderr


def test_readme_tour_runs(tmp_path):
    # the first python block of the README is the library tour
    readme = (DEMOS.parent / "README.md").read_text()
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert "simulate_batch(cfg" in tour
    run = run_python(tmp_path, "-c", tour)
    assert run.returncode == 0, run.stderr
