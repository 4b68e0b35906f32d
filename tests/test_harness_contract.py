"""What the benchmark harness under perfbench/ relies on in the package.

The harness lives outside the package and is kept fixed while the package
changes, so the package keeps two contracts with it:

* perfbench/tracer.py imports spinorspace.cli and then reads
  sys.modules["spinorspace.<layer>"] for every layer in its LAYERS.
  Importing a layer lazily, the obvious cut of the per-start compile time,
  would make Tracer.install raise KeyError in every traced run.
* perfbench/selfcheck.py builds wrong API results with dataclasses.replace
  on a lounesto.ClassificationReport, so the report stays a dataclass.

The tracer also wraps the cli functions named in its CLI_STAGES as the parse
and serialise stages, and ClassicalSpinor.__post_init__ as the spinor
construction span.  A renamed stage or hook makes Tracer.install raise
AttributeError in every traced run, and a hook the constructors stop
calling leaves the construction span empty.
"""

import ast
import dataclasses
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import src_env
from spinorspace import classmap, cli
from spinorspace import clifford as cl
from spinorspace import lounesto
from spinorspace import spinor_forms as sf
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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert {f"spinorspace.{layer}" for layer in layers} <= loaded


def test_classification_report_stays_a_dataclass():
    assert dataclasses.is_dataclass(lounesto.ClassificationReport)
    report = lounesto.classify(ClassicalSpinor([1, 2j, 3, 4 + 1j], cl.WEYL))
    wrong = dataclasses.replace(report, lounesto_class=lounesto.LounestoClass.C2)
    assert wrong.lounesto_class is lounesto.LounestoClass.C2
    assert wrong.bilinears == report.bilinears and wrong.margin == report.margin


def tracer_constant(name: str):
    """A module-level constant of perfbench/tracer.py, read without importing the harness."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py defines no {name}")


def test_every_traced_cli_stage_is_a_cli_function():
    stages = tracer_constant("CLI_STAGES")
    assert stages
    for name in stages:
        assert inspect.isfunction(getattr(cli, name, None)), name
        assert getattr(cli, name).__module__ == cli.__name__


def test_spinor_construction_runs_the_traced_hook(monkeypatch):
    calls = []
    hook = ClassicalSpinor.__post_init__

    def counted(*args, **kwargs):
        calls.append(1)
        return hook(*args, **kwargs)

    monkeypatch.setattr(ClassicalSpinor, "__post_init__", counted)
    psi = ClassicalSpinor([1, 2j, 3, 4 + 1j], cl.WEYL)
    assert len(calls) == 1
    dirac = psi.to_rep(cl.DIRAC)
    assert len(calls) == 2
    sf.classical_from_operator(sf.operator_from_classical(dirac))
    assert len(calls) == 3


def test_every_file_command_calls_the_traced_stages(tmp_path, monkeypatch, capsys):
    """The tracer wraps the CLI_STAGES as module attributes, so every file
    command must reach them through the module at call time: a reference
    taken at import would skip the wrapper and read a stage as empty."""
    calls = {name: 0 for name in tracer_constant("CLI_STAGES")}
    for name in calls:
        def counted(*args, _name=name, _stage=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    rng = np.random.default_rng(3)
    spinors = tmp_path / "spinors.json"
    spinors.write_text(json.dumps({"version": 1, "entries": [
        {"id": f"s{i}", "components": [[z.real, z.imag] for z in c]}
        for i, c in enumerate(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))]}))
    covariants = tmp_path / "covariants.json"
    covariants.write_text(json.dumps({"version": 1, "entries": [
        {"id": "v", "sigma": 1.0, "omega": 0.0, "J": [1, 0, 0, 0], "K": [0, 0, 0, -1], "S": [0] * 6}]}))
    params = tmp_path / "params.json"
    params.write_text(json.dumps({name: [1.0, 0.5] for name in classmap.PARAM_NAMES}))
    runs = [
        (["classify", str(spinors)], "_parse_spinor_entries"),
        (["reconstruct", str(spinors)], "_parse_spinor_entries"),
        (["map4", str(spinors), "--params", str(params)], "_parse_spinor_entries"),
        (["verify", str(spinors)], "_parse_spinor_entries"),
        (["verify", str(covariants)], "_parse_bilinear_entries"),
    ]
    for argv, parse in runs:
        before = dict(calls)
        assert cli.main(argv) in (0, 1), argv
        assert json.loads(capsys.readouterr().out)["meta"]["command"] == argv[0]
        for name in ("_load_json", parse, "_dump"):
            assert calls[name] > before[name], (argv, name)


def test_generate_command_calls_the_traced_generator_once(tmp_path, monkeypatch):
    """The tracer's lounesto.generate span, which the per-layer generate
    metrics read, covers the generate command only while cmd_generate calls
    the public lounesto.generate, once, through the module."""
    calls = []
    generate = lounesto.generate

    def counted(*args, **kwargs):
        calls.append(1)
        return generate(*args, **kwargs)

    monkeypatch.setattr(lounesto, "generate", counted)
    out = tmp_path / "gen.json"
    assert cli.main(["generate", "--class", "4", "--count", "30", "--seed", "2", "--out", str(out)]) == 0
    assert len(calls) == 1 and len(json.loads(out.read_text())["entries"]) == 30
