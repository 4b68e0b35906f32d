"""JSON text to and from float arrays, for files of many entries.

floats reads nested lists of JSON numbers as one float64 array and rejects
anything that the package's one number rule, clifford._numbers, refuses
(true, false, strings, null, an integer beyond float range) or that is not
finite in float64.  dumps writes a report whose row lists are held as
columns, Rows, with the exact bytes of

    json.dumps(report, indent=2, sort_keys=True, allow_nan=False)

for the same report written out as row objects: each group of rows goes
through a template made by json.dumps of one row whose array leaves are
markers, floats through float.__repr__ and strings through
encode_basestring_ascii, and a non-finite float raises the ValueError that
json.dumps raises.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii

import numpy as np

from .clifford import _numbers

__all__ = ["Rows", "dumps", "floats"]


def floats(value, shape: tuple) -> np.ndarray | None:
    """value, nested lists of numbers, as a float64 array of the given shape;
    None unless the number rule (clifford._numbers) takes it as ints or
    floats and every number is finite in float64."""
    try:
        out = _numbers(value, np.float64, "numbers")
    except ValueError:
        return None
    return out if out.shape == shape and np.isfinite(out).all() else None


class Rows:
    """A report's list of row objects, held as (positions, columns) groups.

    columns maps each field name of the group's rows (dotted for a field of
    a nested object, as in zero_flags.J) to an array with one entry per row
    along its first axis, a list field's items along the others, or to a
    value that every row of the group shares; positions (an int array)
    places the group's rows in the list.
    """

    def __init__(self, groups: list[tuple[np.ndarray, dict]]) -> None:
        self.groups = groups

    def all_true(self, name: str) -> bool:
        """Whether every row has the boolean field name, set to true."""
        return all(name in columns and columns[name].all() for _, columns in self.groups)


# json.dumps writes the marker string "\x00<k>" as "\u0000<k>"
_LEAF = re.compile(r'(?m)^( *)(.*)"\\u0000(\d+)"')
_BOOLS = ("false", "true")


def _markers(start: int, shape: tuple):
    """Nested lists of the given shape holding markers start, start + 1, ..."""
    size = int(np.prod(shape, dtype=int))
    return np.array([f"\0{k}" for k in range(start, start + size)], dtype=object).reshape(shape).tolist()


def _template(proto, indent: str) -> tuple[str, list[int], list[str]]:
    """json.dumps text of proto with every line after the first indented by
    indent and each marker leaf replaced by %s; also the marker numbers in
    text order and the indentation of each marker's line."""
    text = json.dumps(proto, indent=2, sort_keys=True, allow_nan=False)
    text = text.replace("%", "%%").replace("\n", "\n" + indent)
    leaves = _LEAF.findall(text)
    return _LEAF.sub(r"\1\2%s", text), [int(k) for _, _, k in leaves], [lead for lead, _, _ in leaves]


def _cells(values: np.ndarray, indent: str) -> list[str]:
    """JSON text of each entry of the 1-d array values, as json.dumps writes
    it on a line indented by indent."""
    if values.dtype.kind == "f":
        return list(map(float.__repr__, values.tolist()))
    if values.dtype.kind == "b":
        return list(map(_BOOLS.__getitem__, values.tolist()))
    items = values.tolist()
    if all(type(v) is str for v in items):
        return list(map(encode_basestring_ascii, items))
    text = {}
    for v in items:
        if v not in text:
            text[v] = json.dumps(v, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n" + indent)
    return [text[v] for v in items]


def _row_texts(pos: np.ndarray, columns: dict) -> list[str]:
    """The text of each row of one group, as an item of a top-level list."""
    proto, leaves = {}, []
    for name, value in columns.items():
        *parents, key = name.split(".")
        node = proto
        for parent in parents:
            node = node.setdefault(parent, {})
        if isinstance(value, np.ndarray):
            node[key] = _markers(len(leaves), value.shape[1:])
            leaves += list(value.reshape(len(value), -1).T)
        else:
            node[key] = value
    template, order, indents = _template(proto, "    ")
    numbers = np.array([leaves[k] for k in order if leaves[k].dtype.kind == "f"]).T
    if not np.isfinite(numbers).all():
        # the first in row order, as json.dumps would meet it
        bad = numbers[np.argsort(pos, kind="stable")]
        raise ValueError("Out of range float values are not JSON compliant: "
                         + repr(float(bad[~np.isfinite(bad)][0])))
    cells = [_cells(leaves[k], indent) for k, indent in zip(order, indents)]
    return [template % row for row in zip(*cells)]


def _row_list(rows: Rows) -> str:
    """The text of rows as the value of a top-level key."""
    items = np.empty(sum(len(pos) for pos, _ in rows.groups), dtype=object)
    for pos, columns in rows.groups:
        items[pos] = _row_texts(pos, columns)
    return "[\n    " + ",\n    ".join(items.tolist()) + "\n  ]" if len(items) else "[]"


def dumps(report: dict) -> str:
    """The JSON object report, whose Rows values stand for lists of row
    objects, as json.dumps(report, indent=2, sort_keys=True,
    allow_nan=False) writes it."""
    values = list(report.values())
    template, order, _ = _template({key: f"\0{i}" if isinstance(value, Rows) else value
                                    for i, (key, value) in enumerate(report.items())}, "")
    return template % tuple(_row_list(values[i]) for i in order)
