"""The experiment scripts run end to end on short horizons."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("consensus_acceleration.py", ["--rounds", "10", "--out", "trace.csv"]),
        ("compare_algorithms.py", ["--rounds", "5", "--seeds", "1"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
