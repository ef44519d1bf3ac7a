"""Smoke test: every demo script runs to completion and prints its measurements."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_weyl_systems.py",
        "02_transform_plancherel.py",
        "03_sobolev_duality.py",
        "04_embedding_chain.py",
        "05_scaling_counterexample.py",
    ],
)
def test_demo_runs(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], cwd=tmp_path, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
