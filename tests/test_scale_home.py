"""One home for the scale rule.

Every decision at every scale is made on the power-of-two ray of
clifford._ray, and the package reaches that ray through two steps:
Record._on_ray takes any record to its ray with its tags, and
bilinears._covariants_on_ray takes a batch of spinor components to its ray
and computes its covariants there, in either signature: it is the one
kernel that sandwiches spinors with the covariant forms, for classify, the
CLI and the public bilinear_covariants and euclidean_bilinears alike.
Only the check of an ideal element's matrix, whose rows span two axes,
calls _ray besides; fierz's public functions reach the ray through the
record step.  These tests pin the record step's contract, that the CLI
takes each row to a ray once, that no other function writes a ray step of
its own, and that no other function sandwiches spinors with the forms.
"""

import ast
import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinorspace import cli, clifford
from spinorspace.bilinears import BilinearSet, bilinear_covariants
from spinorspace.clifford import DIRAC, WEYL, Multivector, Signature
from spinorspace.spinor_forms import ClassicalSpinor

SRC = Path(__file__).resolve().parent.parent / "src" / "spinorspace"

# a part is 0 or of magnitude 1e-3 to 1, so that a row of parts times its
# scale spans too few decades to underflow on its ray
PARTS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
BATCHES = st.sampled_from([(), (1,), (3,), (2, 3)])

# the record types, by the (float64) parts per row and a constructor from them
RECORDS = {
    "weyl": (8, lambda parts: ClassicalSpinor(parts.view(np.complex128), WEYL)),
    "dirac": (8, lambda parts: ClassicalSpinor(parts.view(np.complex128), DIRAC)),
    **{f"bilinears-{s.value}": (16, lambda parts, s=s: BilinearSet.from_stack(parts, s)) for s in Signature},
    **{f"multivector-{s.value}": (32, lambda parts, s=s: Multivector(s, parts.view(np.complex128)))
       for s in Signature},
}


@st.composite
def records(draw):
    """A record of any type and batch shape whose rows lie at 10^-300 to
    10^300, one scale per row, or are zero, signed zeros included."""
    width, build = RECORDS[draw(st.sampled_from(sorted(RECORDS)))]
    batch = draw(BATCHES)
    rows = []
    for _ in range(int(np.prod(batch, dtype=int))):
        parts = np.array(draw(st.lists(PARTS, min_size=width, max_size=width)))
        rows.append(parts * draw(st.one_of(st.just(0.0), st.floats(-300, 300).map(lambda d: 10.0 ** d))))
    return build(np.array(rows).reshape(batch + (width,)))


@given(records())
def test_record_step_is_an_exact_power_of_two(record):
    ray, e = record._on_ray()
    assert type(ray) is type(record)
    assert all(getattr(ray, tag) is getattr(record, tag) for tag in record._tags)
    assert not ray.stack().flags.writeable
    parts, own = ray.stack().view(np.float64), record.stack().view(np.float64)
    assert e.shape == record.stack().shape[:-1] + (1,)
    assert np.ldexp(parts, e).tobytes() == own.tobytes()
    largest = np.abs(parts).max(axis=-1)
    zero = ~own.any(axis=-1)
    assert ((largest >= 0.5) & (largest < 1.0) | zero).all()
    assert (largest[zero] == 0.0).all() and (e[zero] == 0).all()


def ray_calls(argv, text) -> int:
    """Calls of clifford._ray while one command runs in process on text."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is clifford._ray.__code__:
            calls.append(1)

    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.setprofile(None)
        sys.stdin = stdin
    assert code == 0 and json.loads(out.getvalue())["all_pass"] is True
    return len(calls)


def one_block_files() -> dict:
    """A spinor file of one block in one representation, and the file of
    their covariants."""
    rng = np.random.default_rng(16)
    comps = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    v = bilinear_covariants(ClassicalSpinor(comps, WEYL)).stack()
    return {
        "spinors": {"version": 1, "entries": [
            {"id": f"s{i}", "rep": "weyl", "components": [[z.real, z.imag] for z in c.tolist()]}
            for i, c in enumerate(comps)]},
        "covariants": {"version": 1, "entries": [
            {"id": f"c{i}", "sigma": row[0], "omega": row[1], "J": row[2:6].tolist(), "K": row[6:10].tolist(),
             "S": row[10:].tolist()} for i, row in enumerate(v)]},
    }


@pytest.mark.parametrize("kind", ["spinors", "covariants"])
@pytest.mark.parametrize("mode", ["fpk", "aggregate"])
def test_verify_takes_a_block_to_a_ray_once(mode, kind):
    """Spinor rows are taken to their ray once, with their covariants
    computed there; covariant rows go to their own ray once."""
    text = json.dumps(one_block_files()[kind])
    assert ray_calls(["verify", "-", "--mode", mode], text) == 1


@functools.lru_cache(maxsize=None)
def modules() -> tuple:
    """(name, syntax tree) of every module of the package."""
    return tuple((path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py")))


def calls_by_function(name: str) -> set:
    """module:qualname of every function in the package that calls name,
    as a plain or a dotted name."""
    found = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, []

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_scope

        def visit_Call(self, node):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                found.add(f"{self.module}:{'.'.join(self.scope)}")
            self.generic_visit(node)

    for module, tree in modules():
        Visitor(module).visit(tree)
    return found


def test_frexp_is_called_only_by_the_ray():
    assert calls_by_function("frexp") == {"clifford:_ray"}


def test_the_ray_is_called_only_from_its_homes():
    """The record step, the spinor-to-covariants step and the check hook of
    AlgebraicSpinor, whose matrix rows span two axes: fierz has no ray step
    of its own."""
    assert calls_by_function("_ray") == {
        "clifford:Record._on_ray",
        "bilinears:_covariants_on_ray",
        "spinor_forms:AlgebraicSpinor.__post_init__",
    }


def test_the_forms_are_read_only_by_the_one_kernel():
    """The covariant kernel on the ray, and the mapping matrix's constraint
    check, which reads the sigma and omega forms: no second sandwich."""
    assert calls_by_function("_forms") == {"bilinears:_covariants_on_ray", "classmap:constraint_residuals"}
