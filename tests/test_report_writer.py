"""The report writer jsonio.dumps against json.dumps.

Each command's report is captured as the command hands it to _dump.  Hypothesis
then redraws every column of its row groups, including -0.0, subnormals,
+-1e300, integral floats, ids with quotes, backslashes and non-ASCII text,
error rows and empty row lists, and the writer must give the bytes of
json.dumps(report, indent=2, sort_keys=True, allow_nan=False) for the same
report written out as row objects.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinorspace import cli, jsonio

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-320,
                     1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0 ** 53, 0.1]),
)
TEXTS = st.one_of(st.text(), st.text(st.sampled_from(['"', "\\", "é", "☃", "😀", "\ud800", "\x00", "0", "%", "s", "\n"])))

COMMANDS = {
    "generate": ["generate", "--class", "1", "--count", "2"],
    "classify": ["classify", "in.json"],
    "verify-fpk": ["verify", "in.json", "--mode", "fpk"],
    "verify-boomerang": ["verify", "in.json", "--mode", "boomerang"],
    "verify-aggregate": ["verify", "in.json", "--mode", "aggregate"],
    "reconstruct": ["reconstruct", "in.json"],
    "map4": ["map4", "in.json", "--params", "p.json"],
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """The report each command hands to _dump, on two spinors and a zero one."""
    work = tmp_path_factory.mktemp("reports")
    entries = [{"id": "a", "components": [[1, 0], [0, 2], [0, 0], [1, 1]]},
               {"id": "z", "components": [[0, 0]] * 4},
               {"id": "b", "rep": "dirac", "components": [[1, 0], [3, 0], [0, -1], [2, 0]]}]
    (work / "in.json").write_text(json.dumps({"version": 1, "entries": entries}))
    names = ("m11", "m12", "m13", "m14", "m22", "m41", "m42", "m43", "m44")
    (work / "p.json").write_text(json.dumps({n: [1.0 + k, 0.5] for k, n in enumerate(names)}))
    captured = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        for name, argv in COMMANDS.items():
            mp.setattr(cli, "_dump", lambda report, out, name=name: captured.setdefault(name, report))
            cli.main(argv)
    return captured


def redraw(data, column, n):
    """A column like the given one, with n rows of drawn values."""
    shape = (n,) + column.shape[1:]
    size = int(np.prod(shape))
    if column.dtype.kind == "f":
        return np.array(data.draw(st.lists(FLOATS, min_size=size, max_size=size)), dtype=float).reshape(shape)
    if column.dtype.kind == "b":
        return np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool).reshape(shape)
    values = TEXTS if isinstance(column[0], str) else st.lists(TEXTS, max_size=3).map(tuple)
    out = np.empty(n, dtype=object)
    for i, value in enumerate(data.draw(st.lists(values, min_size=n, max_size=n))):
        out[i] = value
    return out


def redraw_report(data, report):
    """The report with every row group redrawn: 0 to 4 rows each, at shuffled positions."""
    out = dict(report)
    for key, rows in report.items():
        if not isinstance(rows, jsonio.Rows):
            continue
        sizes = [data.draw(st.integers(0, 4)) for _ in rows.groups]
        order = np.array(data.draw(st.permutations(range(sum(sizes)))), dtype=int)
        groups, start = [], 0
        for (_, columns), n in zip(rows.groups, sizes):
            if n:
                groups.append((order[start:start + n], {
                    name: redraw(data, value, n) if isinstance(value, np.ndarray) else value
                    for name, value in columns.items()}))
            start += n
        out[key] = jsonio.Rows(groups)
    return out


def plain(report):
    """The report with each Rows value written out as its list of row objects."""
    out = {}
    for key, value in report.items():
        if isinstance(value, jsonio.Rows):
            rows = [None] * sum(len(pos) for pos, _ in value.groups)
            for pos, columns in value.groups:
                lists = {name: col.tolist() if isinstance(col, np.ndarray) else [col] * len(pos)
                         for name, col in columns.items()}
                for i, p in enumerate(pos.tolist()):
                    row = {}
                    for name, col in lists.items():
                        *parents, last = name.split(".")
                        node = row
                        for parent in parents:
                            node = node.setdefault(parent, {})
                        node[last] = col[i]
                    rows[p] = row
            value = rows
        out[key] = value
    return out


def test_captured_reports_have_error_rows(reports):
    for name, report in reports.items():
        rows = report["entries" if name == "generate" else "results"]
        assert len(rows.groups) == (1 if name == "generate" else 2)


@pytest.mark.parametrize("name", COMMANDS)
@settings(max_examples=20)
@given(data=st.data())
def test_writer_matches_json_dumps(reports, name, data):
    report = redraw_report(data, reports[name])
    assert jsonio.dumps(report) == json.dumps(plain(report), indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("name", COMMANDS)
@settings(max_examples=10)
@given(data=st.data())
def test_non_finite_raises_like_json_dumps(reports, name, data):
    """NaN and +-inf raise ValueError, naming the value json.dumps meets first."""
    report = redraw_report(data, reports[name])
    floats = [col for rows in report.values() if isinstance(rows, jsonio.Rows)
              for _, columns in rows.groups for col in columns.values()
              if isinstance(col, np.ndarray) and col.dtype.kind == "f"]
    assume(floats)
    for _ in range(data.draw(st.integers(1, 3))):
        col = data.draw(st.sampled_from(floats))
        col.reshape(-1)[data.draw(st.integers(0, col.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ValueError) as expected:
        json.dumps(plain(report), indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(ValueError) as got:
        jsonio.dumps(report)
    assert str(got.value) == str(expected.value)
