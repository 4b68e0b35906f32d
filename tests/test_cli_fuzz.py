"""Fuzz of the command line over mutated documents.

Every command runs in process through main(argv) on a valid document with
a few mutations: wrong types, booleans, integers beyond float range written
out in full, NaN and Infinity tokens, ragged lists, missing fields, entries
of the other kind, other top levels and deep nesting.  generate reads no
document and runs on drawn options instead.  Whatever the input, the run
ends in a documented exit code (0, 1 or 2; 3 is a program fault) with
stdout empty or strict JSON and stderr empty or one error line, and never
in an exception or a warning.
"""

import contextlib
import io
import json
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorspace import cli

SPINORS = {"version": 1, "entries": [
    {"id": "a", "rep": "weyl", "components": [[1, 0], [0, 0.5], [1, 0], [0, 0]]},
    {"id": "b", "rep": "dirac", "components": [[0.3, 1], [0, 0], [2, -1], [0, 1]]},
]}
COVARIANTS = {"version": 1, "entries": [
    {"id": "p", "sigma": 1.0, "omega": 0.0, "J": [1, 0, 0, 0], "K": [0, 1, 0, 0], "S": [0] * 6},
]}
PARAMS = {name: [0.3 * k + 0.1, -0.2 * k] for k, name in enumerate(
    ("m11", "m12", "m13", "m14", "m22", "m41", "m42", "m43", "m44"))}
PATH = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]]

# each command with its documents; the first one is read from stdin
COMMANDS = {
    "classify": (["classify", "-"], [SPINORS]),
    "verify-fpk": (["verify", "-", "--mode", "fpk"], [SPINORS]),
    "verify-aggregate": (["verify", "-", "--mode", "aggregate"], [COVARIANTS]),
    "verify-boomerang": (["verify", "-", "--mode", "boomerang"], [SPINORS]),
    "reconstruct": (["reconstruct", "-"], [SPINORS]),
    "map4": (["map4", "-", "--params", "PARAMS"], [SPINORS, PARAMS]),
    "winding": (["winding", "-"], [PATH]),
    "generate": None,
}

KEYS = ("id", "rep", "components", "sigma", "omega", "J", "K", "S", "version", "entries", "m11", "m12", "m22")
DEEP = "@deep@"
EXTREMES = st.sampled_from([1e308, -1e200, 1e-320, -0.0, 1e100, 1e-160, 0])
LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.sampled_from(["weyl", "dirac"]),
    st.integers(-3, 3), st.just(10 ** 400), st.just(-(10 ** 400)),
    st.floats(), EXTREMES,
)
VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.dictionaries(st.sampled_from(KEYS), inner, max_size=4)), max_leaves=10)


def mutate(data, doc):
    """doc with one node replaced (by a number, often an extreme one, or by
    any value), deleted, cut short, extended or nested deeply; returns the
    new document and the depth of the deep nesting, 0 for none."""
    kind = data.draw(st.sampled_from(["number", "replace", "delete", "ragged", "extend", "deep"]))
    node, parent, key = doc, None, None
    # a number goes in place of a leaf, so the document may stay valid
    while isinstance(node, (list, dict)) and node and (kind == "number" or data.draw(st.booleans())):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(list(keys)))
        node = node[key]
    depth = 0
    if kind == "number":
        new = data.draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False), EXTREMES))
    elif kind == "delete" and parent is not None:
        del parent[key]
        return doc, 0
    elif kind == "ragged":
        new = node[:-1] if isinstance(node, list) else [node]
    elif kind == "extend":
        value = data.draw(VALUES)
        new = (node + [value] if isinstance(node, list)
               else {**node, "extra": value} if isinstance(node, dict) else [node, value])
    elif kind == "deep":
        new, depth = DEEP, data.draw(st.sampled_from([3, 400, 5000]))
    else:
        new = data.draw(VALUES)
    if parent is None:
        return new, depth
    parent[key] = new
    return doc, depth


def text_of(doc, depth):
    text = json.dumps(doc)
    return text.replace(json.dumps(DEEP), "[" * depth + "1" + "]" * depth)


def generate_argv(data):
    """generate reads no document: its options are drawn instead, each one
    a value argparse takes (a negative --seed and a --count below 1 are
    usage errors, tested in test_cli.py)."""
    return ["generate", "--class", data.draw(st.sampled_from("123456")),
            "--count", str(data.draw(st.integers(1, 3))),
            "--seed", str(data.draw(st.one_of(st.integers(0, 10 ** 30), st.just(10 ** 400)))),
            "--rep", data.draw(st.sampled_from(["weyl", "dirac"])),
            "--tol", data.draw(st.sampled_from(["0", "1e-310", "1e-300", "1e-08", "0.5", "10", "1e300"]))]


def strict(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.fixture(scope="module")
def params_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "params.json"


@settings(max_examples=150)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_cli_survives_mutated_documents(params_file, command, data):
    if command == "generate":
        argv, texts = generate_argv(data), [""]
    else:
        argv, docs = COMMANDS[command]
        docs = [json.loads(json.dumps(d)) for d in docs]
        which = data.draw(st.integers(0, len(docs) - 1))
        texts = [json.dumps(d) for d in docs]
        for _ in range(data.draw(st.integers(1, 3))):
            docs[which], depth = mutate(data, docs[which])
            texts[which] = text_of(docs[which], depth)
            if depth:
                break
    if len(texts) > 1:
        params_file.write_text(texts[1])
    argv = [str(params_file) if a == "PARAMS" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(texts[0])
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=strict)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and "Traceback" not in err.getvalue()
    if lines:
        assert lines[0].startswith("winding: " if code == 1 and command == "winding" else "error: ")
        assert code != 0
