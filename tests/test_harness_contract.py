"""What the benchmark harness under perfbench/ relies on in the package.

The harness lives outside the package and is kept fixed while the package
changes, so the package keeps two contracts with it:

* perfbench/tracer.py imports spinorspace.cli and then reads
  sys.modules["spinorspace.<layer>"] for every layer in its LAYERS.
  Importing a layer lazily, the obvious cut of the per-start compile time,
  would make Tracer.install raise KeyError in every traced run.
* perfbench/selfcheck.py builds wrong API results with dataclasses.replace
  on a lounesto.ClassificationReport, so the report stays a dataclass.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from spinorspace import clifford as cl
from spinorspace import lounesto
from spinorspace.spinor_forms import ClassicalSpinor

ROOT = Path(__file__).resolve().parent.parent


def tracer_layers() -> tuple:
    """LAYERS of perfbench/tracer.py, read without importing the harness."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_cli_import_loads_every_traced_layer():
    layers = tracer_layers()
    assert len(layers) == 8
    code = "import sys; from spinorspace import cli; print(sorted(n for n in sys.modules if n.startswith('spinorspace.')))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert {f"spinorspace.{layer}" for layer in layers} <= loaded


def test_classification_report_stays_a_dataclass():
    assert dataclasses.is_dataclass(lounesto.ClassificationReport)
    report = lounesto.classify(ClassicalSpinor([1, 2j, 3, 4 + 1j], cl.WEYL))
    wrong = dataclasses.replace(report, lounesto_class=lounesto.LounestoClass.C2)
    assert wrong.lounesto_class is lounesto.LounestoClass.C2
    assert wrong.bilinears == report.bilinears and wrong.margin == report.margin
