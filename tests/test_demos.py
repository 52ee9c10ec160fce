"""Smoke test: the narrative demos run to completion.

Each demo runs as its own process in a scratch directory, so files it
writes land there. Demo 04 trains PPO for most of a minute and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import epictrl

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(epictrl.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_simulate_epidemic.py",
    "02_interventions.py",
    "03_rl_environment.py",
    "05_calibration.py",
    "06_rt_analysis.py",
])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
