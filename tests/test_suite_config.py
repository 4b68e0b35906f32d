"""The suite's warning filters, from pyproject.toml.

Every warning fails the test that raised it, numpy's RuntimeWarnings
included.  One warning is ignored: on a failing property Hypothesis
imports libcst to write the patch of the failing example, and libcst's
import warns that mypy_extensions.TypedDict is deprecated.  As an error
that warning raises inside pytest's report hook, which stops the session
with INTERNALERROR and leaves every later test unrun.

The suite needs no install and no PYTHONPATH: pyproject.toml puts src on
the path, and a test that starts an interpreter importing the package
hands it conftest.src_env.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FILES = {
    "test_a_property.py": ("from hypothesis import given, strategies as st\n\n\n"
                           "@given(st.integers())\ndef test_property(x):\n    assert x < 5\n"),
    "test_b_overflow.py": "import numpy as np\n\n\ndef test_overflow():\n    np.float64(1e308) * 10\n",
    "test_c_later.py": "def test_later():\n    pass\n",
}


def test_failing_property_is_reported_and_later_tests_run(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED test_a_property.py::test_property" in out
    assert "FAILED test_b_overflow.py::test_overflow - RuntimeWarning" in out
    assert "2 failed, 1 passed" in out


def test_suite_runs_from_a_bare_checkout():
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_cli.py::test_console_entry_point_runs", "tests/test_scripts.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "3 passed" in proc.stdout
