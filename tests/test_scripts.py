"""Smoke runs of the scripts: the calibration oracle and the mapping census
exercise the multiplication matrices and the multivector builders."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["calibrate_conventions.py", "mapping_census.py"])
def test_script_runs(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
