"""Every shared array of the package is read-only.

The cached tables (the Clifford product table, the covariant basis, the
identity forms, the class pattern table, ...) and the module constants
(PAULI, the blade masks, the pattern bits, ...) are read by every later
call, so an in-place write to one would silently change every later
result.  They are published read-only by one helper, clifford._frozen.
This walks each ndarray reachable from a spinorspace module's globals and
each cached builder's results over its whole argument domain.
"""

import importlib
import inspect
import itertools
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import spinorspace
from spinorspace import conventions
from spinorspace.clifford import GammaRep, Record, Signature, _frozen

MODULES = [importlib.import_module(f"spinorspace.{info.name}") for info in pkgutil.iter_modules(spinorspace.__path__)]


def arrays(value, path):
    """(path, array) of every ndarray reachable from value: the value itself,
    an item of a tuple, list or dict, a GammaRep's gammas or a record's array."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from arrays(item, f"{path}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from arrays(item, f"{path}[{key!r}]")
    elif isinstance(value, GammaRep):
        yield from arrays(value.gammas, f"{path}.gammas")
    elif isinstance(value, Record):
        yield f"{path}.stack()", value.stack()


def module_globals():
    for module in MODULES:
        for name, value in vars(module).items():
            if not name.startswith("__"):
                yield f"{module.__name__}.{name}", value


# every value each argument of a cached builder takes in the package
DOMAIN = {
    "signature": list(Signature),
    "rep": sorted({value for _, value in module_globals() if isinstance(value, GammaRep)}, key=str),
    "right": [False, True],
    "factor": [conventions.S_SCALE, conventions.S_SCALE_EUCLIDEAN, conventions.GENERALIZED_S_FACTOR],
}


# every cached function defined in the package, by path
BUILDERS = {path: value for path, value in module_globals()
            if hasattr(value, "cache_info") and path == f"{value.__module__}.{value.__name__}"}


def test_the_walk_sees_the_shared_arrays():
    found = {path for path, _ in itertools.chain.from_iterable(arrays(v, p) for p, v in module_globals())}
    assert {"spinorspace.clifford.PAULI[0]", "spinorspace.lounesto._PATTERN_BITS",
            "spinorspace.clifford.WEYL.gammas[0]", "spinorspace.clifford._GRADE_MASKS[2]"} <= found
    assert set(BUILDERS) >= {"spinorspace.clifford._product_table", "spinorspace.bilinears._s_weights",
                             "spinorspace.lounesto._pattern_table"}


def test_module_arrays_are_read_only():
    writable = sorted(path for path, array in itertools.chain.from_iterable(arrays(v, p) for p, v in module_globals())
                      if array.flags.writeable)
    assert writable == []


@pytest.mark.parametrize("path", BUILDERS)
def test_cached_tables_are_read_only(path):
    builder = BUILDERS[path]
    names = list(inspect.signature(builder.__wrapped__).parameters)
    assert set(names) <= set(DOMAIN), f"{path} takes an argument with no domain here"
    for args in itertools.product(*(DOMAIN[name] for name in names)):
        found = list(arrays(builder(*args), f"{path}{args}"))
        assert found, f"{path}{args} returned no array"
        assert [p for p, array in found if array.flags.writeable] == []


def test_frozen_marks_its_arguments_and_returns_them():
    a, b = np.zeros(2), np.ones(3)
    assert _frozen(a) is a and not a.flags.writeable
    c, d = np.zeros(2), np.ones(3)
    frozen = _frozen(b, c, d)
    assert type(frozen) is tuple and len(frozen) == 3 and all(x is y for x, y in zip(frozen, (b, c, d)))
    assert not any(x.flags.writeable for x in (b, c, d))
    with pytest.raises(ValueError):
        a[0] = 1.0


def test_frozen_is_the_one_place_arrays_are_marked_read_only():
    source = Path(spinorspace.__file__).parent
    marks = [f"{path.name}:{n}" for path in sorted(source.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1) if re.search(r"writeable\s*=\s*False", line)]
    assert len(marks) == 1 and marks[0].startswith("clifford.py:")
