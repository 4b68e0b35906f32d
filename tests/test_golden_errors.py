"""Golden error lines of the command line on malformed documents.

classify, verify (on a spinor and on a covariant file), reconstruct, map4
(its spinor file and its parameter file) and winding run in process on a
fixed corpus of documents drawn from random.Random(SEED) with the
mutations of tests/test_cli_fuzz.py: a bad leaf, a deleted key, a ragged
list, an entry of the other kind, a non-object entry, a broken envelope
and deep nesting, one or two of them per document, plus a few documents
written out by hand.  The exit code, stderr and sha256 of stdout of each
run must equal the triple recorded in golden_errors.json, so a change to a
reader is checked against every error line at once.

The file also pins that cli has one reader: jsonio.floats, which reads
the numbers of every input file, is called only by that reader and by
cli._field.

To record golden_errors.json again, from a tree whose messages are
trusted:

    PYTHONPATH=src python tests/test_golden_errors.py

The lines were recorded with Python 3.11 and numpy 2.4; another decoder
may word its messages on malformed JSON differently.
"""

import ast
import contextlib
import copy
import hashlib
import io
import json
import random
import sys
import warnings
from pathlib import Path

import pytest

from spinorspace import cli

GOLDEN_PATH = Path(__file__).with_name("golden_errors.json")
SEED = 17
PARAMS_NAME = "params.json"

SPINOR = {"id": "a", "rep": "weyl", "components": [[1, 0], [0, 0.5], [1, 0], [0, 0]]}
COVARIANT = {"id": "p", "sigma": 1.0, "omega": 0.0, "J": [1, 0, 0, 0], "K": [0, 1, 0, 0], "S": [0, 0, 0, 0, 0, 0]}
SPINORS = {"version": 1, "entries": [
    SPINOR,
    {"id": "b", "rep": "dirac", "components": [[0.3, 1], [0, 0], [2, -1], [0, 1]]},
    {"components": [[0, 1], [1, 0], [0, -1], [2, 0]]},
]}
COVARIANTS = {"version": 1, "entries": [
    COVARIANT,
    {"id": "q", "sigma": 0.0, "omega": 0.0, "J": [1, 0, 0, 1], "K": [0, 1, 1, 0], "S": [1, 0, 0, 0, 0, -1]},
]}
PARAMS = {name: [0.3 * k + 0.1, -0.2 * k] for k, name in enumerate(
    ("m11", "m12", "m13", "m14", "m22", "m41", "m42", "m43", "m44"))}
PATH = [[1, 0], [0.5, 1], [-1, 0.5], [-0.5, -1], [1, -0.5], [1, 0]]

MAP4 = ["map4", "-", "--params", PARAMS_NAME]
# each source: its argv, the document it mutates, whether that document is
# the parameter file, the document of the entry of the other kind, and the
# number of documents drawn
SOURCES = {
    "classify": (["classify", "-"], SPINORS, False, COVARIANT, 30),
    "verify-spinors": (["verify", "-"], SPINORS, False, COVARIANT, 30),
    "verify-covariants": (["verify", "-", "--mode", "aggregate"], COVARIANTS, False, SPINOR, 35),
    "reconstruct": (["reconstruct", "-"], SPINORS, False, COVARIANT, 25),
    "map4-spinors": (MAP4, SPINORS, False, COVARIANT, 25),
    "map4-params": (MAP4, PARAMS, True, COVARIANT, 25),
    "winding": (["winding", "-"], PATH, False, SPINOR, 30),
}

BAD_LEAVES = [True, False, None, "1", "", 10 ** 400, -(10 ** 400), float("nan"), float("inf"), -float("inf"),
              [], {}, [1.0], 1e308, -0.0, 5e-324]
NON_OBJECTS = [5, "x", None, [1, 2], True, 1.5]
DEEP = "@deep@"
DEPTHS = (3, 70, 400, 5000)
MUTATIONS = ("leaf", "delete", "ragged", "other", "non-object", "envelope", "deep")


def nodes(doc) -> list:
    """(parent, key, value) of every node below doc, in document order."""
    found = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in list(items):
            found.append((node, key, value))
            walk(value)

    walk(doc)
    return found


def items_of(doc):
    """The container of the document's items: the entry list of a spinor or
    covariant file, the vertex list of a path, the parameter object."""
    if isinstance(doc, dict) and isinstance(doc.get("entries"), list):
        return doc["entries"]
    return doc if isinstance(doc, (list, dict)) and "entries" not in doc else None


def envelope(rng: random.Random, doc):
    """doc with its top level broken."""
    if isinstance(doc, dict) and "version" in doc:
        return rng.choice([
            lambda d: d["entries"], lambda d: {**d, "version": 2}, lambda d: {**d, "version": "1"},
            lambda d: {k: v for k, v in d.items() if k != "version"}, lambda d: {**d, "entries": {}},
            lambda d: {**d, "entries": None}, lambda d: {"version": 1}, lambda d: 5,
        ])(doc)
    return rng.choice([lambda d: {"path": d}, lambda d: [d], lambda d: "x", lambda d: None])(doc)


def mutate(rng: random.Random, doc, other):
    """doc with one mutation applied, and the depth of its deep nesting (0 for none)."""
    kind = rng.choice(MUTATIONS)
    every = nodes(doc)
    items = items_of(doc)
    keys = list(items) if isinstance(items, dict) else range(len(items)) if items is not None else []
    if kind == "leaf":
        leaves = [(p, k) for p, k, v in every if type(v) in (int, float)]
        if leaves:
            parent, key = rng.choice(leaves)
            parent[key] = copy.deepcopy(rng.choice(BAD_LEAVES))
    elif kind == "delete":
        fields = [(p, k) for p, k, _ in every if isinstance(p, dict)]
        if fields:
            parent, key = rng.choice(fields)
            del parent[key]
    elif kind == "ragged":
        lists = [v for _, _, v in every if isinstance(v, list) and v]
        if lists:
            node = rng.choice(lists)
            if rng.random() < 0.5:
                node.pop()
            else:
                node.append(copy.deepcopy(node[0]))
    elif kind in ("other", "non-object") and keys:
        items[rng.choice(list(keys))] = copy.deepcopy(other if kind == "other" else rng.choice(NON_OBJECTS))
    elif kind == "envelope":
        return envelope(rng, doc), 0
    elif kind == "deep" and every:
        parent, key, _ = rng.choice(every)
        parent[key] = DEEP
        return doc, rng.choice(DEPTHS)
    return doc, 0


def text_of(doc, depth: int) -> str:
    return json.dumps(doc).replace(json.dumps(DEEP), "[" * depth + "1" + "]" * depth)


def drawn(rng: random.Random, base, other) -> str:
    doc, depth = copy.deepcopy(base), 0
    for _ in range(rng.choice((1, 1, 2))):
        doc, depth = mutate(rng, doc, other)
        if depth:
            break
    return text_of(doc, depth)


def entries(*items) -> str:
    return json.dumps({"version": 1, "entries": list(items)})


BAD_SPINOR = {**SPINOR, "components": [[1, 0], [True, 0], [1, 0], [0, 0]]}
# files whose first bad entry is a non-object one, written out
HAND_WRITTEN = {
    "verify-covariants-nonobject-last": (["verify", "-"], entries(COVARIANT, 5)),
    "verify-covariants-nonobject-first": (["verify", "-"], entries(5, COVARIANT)),
    "verify-covariants-nonobject-then-spinor": (["verify", "-"], entries(COVARIANT, None, SPINOR)),
    "verify-covariants-spinor-then-nonobject": (["verify", "-"], entries(COVARIANT, SPINOR, None)),
    "verify-spinors-nonobject-first": (["verify", "-"], entries(5, SPINOR)),
    "verify-spinors-bad-then-nonobject": (["verify", "-"], entries(BAD_SPINOR, 5)),
    "verify-spinors-nonobject-then-covariant": (["verify", "-"], entries(SPINOR, 5, COVARIANT)),
    "classify-nonobject-first": (["classify", "-"], entries(5, COVARIANT)),
    "classify-bad-then-nonobject": (["classify", "-"], entries(BAD_SPINOR, 5)),
}


def corpus() -> dict:
    """name -> (argv, stdin text, parameter file text) of every case."""
    rng = random.Random(SEED)
    cases = {}
    for source, (argv, base, is_params, other, count) in SOURCES.items():
        for k in range(count):
            text = drawn(rng, base, other)
            stdin, params = (text, json.dumps(PARAMS)) if not is_params else (json.dumps(SPINORS), text)
            if is_params and rng.random() < 0.5:
                # a broken spinor file too: the parameter file's error comes first
                stdin = drawn(rng, SPINORS, COVARIANT)
            cases[f"{source}-{k:03d}"] = (argv, stdin, params)
    for name, (argv, text) in HAND_WRITTEN.items():
        cases[name] = (argv, text, json.dumps(PARAMS))
    return cases


CASES = corpus()


def run(argv, stdin_text: str) -> list:
    """[exit code, stderr, sha256 of stdout] of one command run in process."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return [code, err.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()]


def outcome(name: str) -> list:
    argv, stdin_text, params = CASES[name]
    Path(PARAMS_NAME).write_text(params)
    return run(argv, stdin_text)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-errors")


@pytest.mark.parametrize("name", CASES)
def test_error_line_matches_its_golden_line(golden, workdir, monkeypatch, name):
    monkeypatch.chdir(workdir)
    assert outcome(name) == golden[name]


def test_every_case_has_a_golden_line(golden):
    assert sorted(golden) == sorted(CASES)


def test_corpus_reaches_every_reader(golden):
    """The drawn documents end in each reader's field errors, not only in
    envelope and JSON errors."""
    errors = "".join(err for _, err, _ in golden.values())
    for marker in ("].components[", "]: rep must be", "].J: expected", "]: missing field", "params.json.m",
                   "-[2]: expected", "]: expected an object", "is a spinor entry", "is a covariant entry"):
        assert marker in errors


def test_floats_is_called_only_by_field_and_the_one_reader():
    tree = ast.parse(Path(cli.__file__).read_text())
    callers = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               for call in ast.walk(node)
               if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "floats"}
    assert callers == {"_field", "_read_items"}


if __name__ == "__main__":
    import os
    import tempfile

    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for case in CASES:
            recorded[case] = outcome(case)
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN_PATH}")
