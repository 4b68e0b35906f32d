"""The process entry of the command line against main() in process.

`python -m spinorspace.cli` and the `spinorspace` script run cli.run(),
which calls main() and freezes the heap before the exit, so that
interpreter shutdown does not collect the import graph.  A command run
as a process must print, write and exit exactly as main(argv) does in
process, and main(argv) must leave the collector's state as it found it.
"""

import ast
import gc
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from spinorspace import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinorspace"

SPINORS = {"version": 1, "entries": [
    {"id": "a", "rep": "weyl", "components": [[1, 0], [0, 0.5], [1, 0], [0, 0]]},
    {"id": "b", "rep": "dirac", "components": [[0.3, 1], [0, 0], [2, -1], [0, 1]]},
    {"id": "z", "components": [[0, 0], [0, 0], [0, 0], [0, 0]]},
]}
# sigma = omega = 0 with a spacelike K: the FPK check fails, verify exits 1
ANOMALOUS = {"version": 1, "entries": [
    {"id": "bad", "sigma": 0.0, "omega": 0.0, "J": [0, 0, 0, 0], "K": [1, 0, 0, 0], "S": [0, 0, 0, 0, 0, 0]},
]}
SCHEMA_ERROR = {"version": 1, "entries": [{"id": "a", "components": [[1, 0], [True, 0], [1, 0], [0, 0]]}]}
# the unit circle once around the origin, closed
CIRCLE = [[math.cos(2 * math.pi * k / 64), math.sin(2 * math.pi * k / 64)] for k in range(64)]
CIRCLE.append(CIRCLE[0])

# name -> argv, with OUT for the --out path of the run
COMMANDS = {
    "classify": ["classify", "spinors.json"],
    "verify-fails": ["verify", "anomalous.json", "--mode", "fpk", "--out", "OUT"],
    "schema-error": ["classify", "schema.json"],
    "generate-out": ["generate", "--class", "5", "--count", "3", "--seed", "2", "--out", "OUT"],
    "winding": ["winding", "circle.json"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("process-entry")
    for name, doc in [("spinors.json", SPINORS), ("anomalous.json", ANOMALOUS), ("schema.json", SCHEMA_ERROR),
                      ("circle.json", CIRCLE)]:
        (path / name).write_text(json.dumps(doc))
    return path


def argv_of(name: str, out: str) -> list:
    return [out if arg == "OUT" else arg for arg in COMMANDS[name]]


def out_bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def test_process_run_equals_main_in_process(workdir, capsys, monkeypatch):
    """Exit code, stdout bytes, stderr and --out bytes of each command are
    the same from `python -m spinorspace.cli` as from cli.main(argv), and
    main() leaves the collector enabled as it was and freezes nothing."""
    env = src_env()
    procs = {name: subprocess.Popen([sys.executable, "-m", "spinorspace.cli", *argv_of(name, f"{name}.proc.out")],
                                    cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for name in COMMANDS}
    monkeypatch.chdir(workdir)
    state = (gc.isenabled(), gc.get_freeze_count())
    in_process = {}
    for name in COMMANDS:
        code = cli.main(argv_of(name, f"{name}.main.out"))
        captured = capsys.readouterr()
        assert (gc.isenabled(), gc.get_freeze_count()) == state, name
        in_process[name] = (code, captured.out.encode(), captured.err, out_bytes(workdir / f"{name}.main.out"))
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=60)
        process = (proc.returncode, stdout, stderr.decode(), out_bytes(workdir / f"{name}.proc.out"))
        assert process == in_process[name], name
    assert [in_process[name][0] for name in COMMANDS] == [0, 1, 2, 0, 0]
    assert in_process["generate-out"][3] and in_process["verify-fails"][3]


def calls_of_freeze(tree: ast.AST) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "freeze"]


def test_heap_is_frozen_only_by_the_process_entry():
    """gc.freeze is called once in the package, in cli.run; the __main__
    block and the console script both run that entry; and no module of the
    package registers an atexit handler or changes the collector's settings."""
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        assert "atexit" not in names, path.name
        assert "gc.disable" not in path.read_text() and "gc.set_threshold" not in path.read_text(), path.name
        if path.name != "cli.py":
            assert not calls_of_freeze(tree), path.name
    tree = ast.parse((SRC / "cli.py").read_text())
    run, = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "run"]
    assert len(calls_of_freeze(tree)) == len(calls_of_freeze(run)) == 1
    main_block, = [node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in main_block.body] == ["run()"]
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'spinorspace = "spinorspace.cli:run"'
