"""End-to-end command line behavior over JSON files."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinorspace import bilinears, classmap, cli, clifford, lounesto
from spinorspace.spinor_forms import ClassicalSpinor


def run_cli(argv, stdin_text=None, capsys=None):
    """Invoke main() in process, returning (exit_code, stdout); stderr is
    available as run_cli.err after the call."""
    if stdin_text is not None:
        import io
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = cli.main(argv)
        finally:
            sys.stdin = old
    else:
        code = cli.main(argv)
    if capsys:
        captured = capsys.readouterr()
        run_cli.err = captured.err
        return code, captured.out
    run_cli.err = ""
    return code, ""


def spinor_file(path, entries):
    doc = {"version": 1, "entries": entries}
    path.write_text(json.dumps(doc))
    return str(path)


def entry(ident, components, rep="weyl"):
    return {"id": ident, "rep": rep,
            "components": [[z.real, z.imag] for z in map(complex, components)]}


def circle_file(path, radius=1.0, center=(0.0, 0.0), n=64):
    t = np.linspace(0, 2 * np.pi, n + 1)
    pts = np.stack([center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)], axis=1)
    pts[-1] = pts[0]
    path.write_text(json.dumps(pts.tolist()))
    return str(path)


# -- classify -------------------------------------------------------------------


def test_classify_weyl_basis_spinor(tmp_path, capsys):
    f = spinor_file(tmp_path / "in.json", [entry("a", [1, 0, 0, 0])])
    code, out = run_cli(["classify", f], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["class"] == "6"


def test_classify_zero_spinor_entry_error(tmp_path, capsys):
    f = spinor_file(tmp_path / "in.json", [entry("z", [0, 0, 0, 0])])
    code, out = run_cli(["classify", f], capsys=capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["error"] == "zero spinor"


def test_classify_empty_entries(tmp_path, capsys):
    f = spinor_file(tmp_path / "in.json", [])
    code, out = run_cli(["classify", f], capsys=capsys)
    assert code == 0
    assert json.loads(out)["results"] == []


def test_classify_reads_stdin(tmp_path, capsys):
    doc = json.dumps({"version": 1, "entries": [entry("a", [1, 0, 1, 0])]})
    code, out = run_cli(["classify", "-"], stdin_text=doc, capsys=capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["class"] == "2"


def test_classify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "entries": [')
    code, _ = run_cli(["classify", str(bad)], capsys=capsys)
    assert code == 2
    assert "malformed JSON" in run_cli.err


def test_classify_schema_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 2, "entries": []}))
    code, _ = run_cli(["classify", str(bad)], capsys=capsys)
    assert code == 2


def test_classify_boolean_pair_is_schema_error(tmp_path, capsys):
    doc = {"version": 1, "entries": [{
        "id": "b", "components": [[True, False], [0, 0], [1, 0], [0, 0]],
    }]}
    f = tmp_path / "in.json"
    f.write_text(json.dumps(doc))
    code, out = run_cli(["classify", str(f)], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "[re, im] pair" in run_cli.err


HUGE = 10 ** 400  # an integer beyond float64 range


@pytest.mark.parametrize("bad", [
    [True, 0.5], ["1", 0], [None, 0], [[1], 0], [float("nan"), 0], [0, float("-inf")], [HUGE, 0], [1, 0, 0], "10",
], ids=["bool", "string", "null", "nested", "nan", "inf", "huge-int", "triple", "not-a-pair"])
def test_bad_component_is_schema_error_naming_entry(tmp_path, capsys, bad):
    """The whole-file read rejects what the per-entry check rejects (numpy
    alone would read true as 1.0 and "1" as 1.0), and the error names the
    first bad entry, not a later one with a bad rep."""
    f = spinor_file(tmp_path / "in.json", [
        entry("ok", [1, 0, 1, 0]),
        {"id": "bad", "components": [[1, 0], bad, [0, 0], [0, 0]]},
        {"id": "late", "rep": "majorana", "components": [[1, 0], [0, 0], [1, 0], [0, 0]]},
    ])
    code, out = run_cli(["classify", f], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "entries[1].components[1]: expected a [re, im] pair of finite numbers" in run_cli.err


def test_parsed_components_equal_their_pairs(tmp_path):
    """Ints, integers beyond 2^53, -0.0 and subnormals read bit for bit as complex(re, im)."""
    entries = [{"components": [[0, -0.0], [5e-324, -1e300], [10 ** 300, 2 ** 64 + 1], [1, -3]]},
               {"id": 17, "rep": "dirac", "components": [[-0.0, 0], [2.5, 1e-310], [0, 0], [7, 0.1]]}]
    ids, reps, comps = cli.load_spinor_file(spinor_file(tmp_path / "in.json", entries))
    expected = np.array([[complex(*pair) for pair in e["components"]] for e in entries])
    assert np.array_equal(comps.view(np.uint64), expected.view(np.uint64))
    assert ids.tolist() == ["entry-0", "17"] and reps.tolist() == ["weyl", "dirac"]


NUMBERS = st.one_of(st.floats(), st.integers(-2 ** 70, 2 ** 70),
                    st.sampled_from([True, False, "1", None, HUGE, -HUGE, [1.0], {}]))
VALID = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-2 ** 70, 2 ** 70))


def numbers(shape):
    """Mostly valid nested lists of the given shape, sometimes with a bad number or length."""
    if not shape:
        return st.one_of(VALID, VALID, NUMBERS)
    inner = numbers(shape[1:])
    return st.one_of(st.lists(inner, min_size=shape[0], max_size=shape[0]), st.lists(inner, max_size=shape[0] + 1))


def entries_of(fields):
    entry = st.fixed_dictionaries({name: numbers(shape) for name, shape in fields},
                                  optional={"id": st.text(max_size=3),
                                            "rep": st.sampled_from(["weyl", "dirac", "x"])})
    return st.lists(st.one_of(entry, entry, entry, NUMBERS), max_size=4)


def first_entry_error(check, entries):
    try:
        for pos, e in enumerate(entries):
            check(e, f"f.json: entries[{pos}]")
    except cli.SchemaError as exc:
        return str(exc)
    return None


@given(entries_of([("components", (4, 2))]))
def test_spinor_file_read_agrees_with_entry_checks(entries):
    """The whole-file read accepts exactly what the per-entry checks accept,
    with the same values, and otherwise raises their first error."""
    doc = {"version": 1, "entries": entries}
    error = first_entry_error(cli._check_spinor_entry, entries)
    if error is not None:
        with pytest.raises(cli.SchemaError) as excinfo:
            cli._parse_spinor_entries(doc, "f.json")
        assert str(excinfo.value) == error
        return
    _, reps, comps = cli._parse_spinor_entries(doc, "f.json")
    expected = np.array([[complex(*pair) for pair in e["components"]] for e in entries], dtype=complex)
    assert np.array_equal(comps.view(np.uint64), expected.reshape(-1, 4).view(np.uint64))
    assert reps.tolist() == [e.get("rep", "weyl") for e in entries]


@given(entries_of([("sigma", ()), ("omega", ()), ("J", (4,)), ("K", (4,)), ("S", (6,))]))
def test_covariant_file_read_agrees_with_entry_checks(entries):
    doc = {"version": 1, "entries": entries}
    error = first_entry_error(cli._check_covariant_entry, entries)
    if error is not None:
        with pytest.raises(cli.SchemaError) as excinfo:
            cli._parse_bilinear_entries(doc, "f.json")
        assert str(excinfo.value) == error
        return
    _, stack = cli._parse_bilinear_entries(doc, "f.json")
    expected = [np.hstack([e[name] for name in ("sigma", "omega", "J", "K", "S")]) for e in entries]
    assert np.array_equal(stack, np.array(expected, dtype=float).reshape(-1, 16))


@pytest.mark.parametrize("bad, field", [
    ({"sigma": True, "omega": "0"}, "sigma"), ({"omega": "0"}, "omega"), ({"J": [1, 0, 0, HUGE]}, "J"),
    ({"K": [0, 1, 0, float("nan")]}, "K"), ({"S": [0, 0, 0, 0, 0]}, "S"), ({"J": [1, 0, 0, False]}, "J"),
])
def test_bad_covariant_field_is_schema_error(tmp_path, capsys, bad, field):
    good = {"id": "c", "sigma": 1.0, "omega": 0.0, "J": [1, 0, 0, 0], "K": [0, 1, 0, 0], "S": [0, 0, 0, 0, 0, 0]}
    f = spinor_file(tmp_path / "in.json", [good, {**good, **bad}])
    code, out = run_cli(["verify", f], capsys=capsys)
    assert code == 2
    assert out == ""
    assert f"entries[1].{field}: expected " in run_cli.err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["classify", "in.json"],
    ["generate", "--class", "1"],
    ["verify", "in.json"],
    ["map4", "in.json", "--params", "p.json"],
    ["reconstruct", "in.json"],
], ids=["classify", "generate", "verify", "map4", "reconstruct"])
def test_tol_must_be_finite_and_nonnegative(capsys, argv, tol):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + ["--tol", tol])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


def overflow_file(tmp_path):
    """An entry whose covariants overflow float64 ahead of a valid one."""
    return spinor_file(tmp_path / "in.json", [entry("big", [1e200, 0, 1, 0]), entry("ok", [1, 0, 1, 0])])


def run_without_warnings(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(argv, capsys=capsys)


def test_classify_overflow_entry_is_error_row(tmp_path, capsys):
    code, out = run_without_warnings(["classify", overflow_file(tmp_path)], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results[0] == {"id": "big", "error": "covariants do not fit in float64"}
    assert results[1]["id"] == "ok" and results[1]["class"] == "2"
    assert run_cli.err == ""


@pytest.mark.parametrize("mode", ["fpk", "boomerang", "aggregate"])
def test_verify_overflow_entry_fails_run(tmp_path, capsys, mode):
    code, out = run_without_warnings(["verify", overflow_file(tmp_path), "--mode", mode], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["all_pass"] is False
    assert doc["results"][0] == {"id": "big", "error": "covariants do not fit in float64"}
    assert doc["results"][1]["pass"] is True
    assert run_cli.err == ""


@pytest.mark.parametrize("mode", ["fpk", "boomerang", "aggregate"])
@pytest.mark.parametrize("kind", ["spinors", "bilinears"])
def test_verify_unfit_residuals_fail_run(tmp_path, capsys, mode, kind):
    """Covariants near 1e200 fit in float64, but their squares do not."""
    if kind == "spinors":
        entries = [entry("big", [1e100, 0, 1e100, 0]), entry("ok", [1, 0, 1, 0])]
    else:
        entries = [{"id": "big", "sigma": 2e200, "omega": 0.0, "J": [2e200, 0, 0, 0],
                    "K": [0, 0, 0, -2e200], "S": [0, 0, 0, 0, 0, 0]},
                   {"id": "ok", "sigma": 2.0, "omega": 0.0, "J": [2, 0, 0, 0],
                    "K": [0, 0, 0, -2], "S": [0, 0, 0, 0, 0, 0]}]
    code, out = run_without_warnings(["verify", spinor_file(tmp_path / "in.json", entries), "--mode", mode],
                                     capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["meta"]["input_kind"] == kind
    assert doc["all_pass"] is False
    assert doc["results"][0] == {"id": "big", "error": "residuals do not fit in float64"}
    assert doc["results"][1]["id"] == "ok"
    assert run_cli.err == ""


def test_reconstruct_overflow_entry_fails_run(tmp_path, capsys):
    code, out = run_without_warnings(["reconstruct", overflow_file(tmp_path)], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["all_pass"] is False
    assert doc["results"][0] == {"id": "big", "error": "covariants do not fit in float64"}
    assert doc["results"][1]["pass"] is True
    assert run_cli.err == ""


def test_classify_tiny_spinor_like_unit_one(tmp_path, capsys):
    f = spinor_file(tmp_path / "in.json", [entry("tiny", [1e-200, 0, 1e-200, 0])])
    code, out = run_cli(["classify", f], capsys=capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["class"] == "2"


@pytest.mark.parametrize("covariant_first", [False, True], ids=["spinor-first", "covariant-first"])
def test_verify_mixed_file_is_schema_error(tmp_path, capsys, covariant_first):
    spinor = entry("s", [1, 0, 1, 0])
    covariant = {"id": "c", "sigma": 1.0, "omega": 0.0,
                 "J": [1, 0, 0, 0], "K": [0, 1, 0, 0], "S": [0, 0, 0, 0, 0, 0]}
    entries = [covariant, spinor] if covariant_first else [spinor, covariant]
    f = spinor_file(tmp_path / "in.json", entries)
    code, out = run_cli(["verify", f], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "entries[1]" in run_cli.err
    assert "spinor" in run_cli.err and "covariant" in run_cli.err


def test_verify_missing_covariant_field_named(tmp_path, capsys):
    good = {"id": "c", "sigma": 1.0, "omega": 0.0,
            "J": [1, 0, 0, 0], "K": [0, 1, 0, 0], "S": [0, 0, 0, 0, 0, 0]}
    missing = {k: v for k, v in good.items() if k != "sigma"}
    f = spinor_file(tmp_path / "in.json", [good, missing])
    code, out = run_cli(["verify", f], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "entries[1]: missing field 'sigma'" in run_cli.err


@pytest.mark.parametrize("argv", [
    ["classify"], ["verify", "--mode", "fpk"], ["verify", "--mode", "boomerang"],
    ["verify", "--mode", "aggregate"], ["reconstruct"], ["map4", "--params", "params.json"],
], ids=["classify", "fpk", "boomerang", "aggregate", "reconstruct", "map4"])
def test_block_report_equals_one_entry_runs(tmp_path, capsys, monkeypatch, argv):
    """A file spanning three blocks, with a zero spinor inside one, gives
    the same rows as running each entry on its own."""
    rng = np.random.default_rng(5)
    monkeypatch.chdir(tmp_path)
    params_file(tmp_path / "params.json", np.random.default_rng(6))
    n = 2 * cli.BLOCK + 1
    comps = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    comps[cli.BLOCK + 3] = 0
    entries = [entry(f"e{i}", c, rep=("weyl", "dirac")[i % 3 == 0]) for i, c in enumerate(comps)]
    whole = tmp_path / "whole.json"
    cli.main([argv[0], spinor_file(tmp_path / "in.json", entries), *argv[1:], "--out", str(whole)])
    singles = []
    for e in entries:
        one = tmp_path / "one.json"
        cli.main([argv[0], spinor_file(tmp_path / "in1.json", [e]), *argv[1:], "--out", str(one)])
        singles += json.loads(one.read_text())["results"]
    results = json.loads(whole.read_text())["results"]
    assert results[cli.BLOCK + 3]["error"] == "zero spinor"
    assert json.dumps(results, indent=2, sort_keys=True) == json.dumps(singles, indent=2, sort_keys=True)


@pytest.mark.parametrize("mode", ["fpk", "boomerang", "aggregate"])
def test_covariant_block_report_equals_one_entry_runs(tmp_path, capsys, mode):
    """A covariant file spanning three blocks, with an entry inside the
    second whose residuals do not fit in float64, gives the same rows as
    running each entry on its own."""
    rng = np.random.default_rng(7)
    n = 2 * cli.BLOCK + 1
    psi = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    stacks = bilinears.bilinear_covariants(ClassicalSpinor(psi, clifford.WEYL)).stack().copy()
    # every fifth entry breaks the identities, and one has components near 2e200
    stacks[::5] = rng.standard_normal((len(stacks[::5]), 16))
    stacks[cli.BLOCK + 3] *= 2e200
    entries = [{"id": f"v{i}", "sigma": v[0], "omega": v[1], "J": v[2:6], "K": v[6:10], "S": v[10:]}
               for i, v in enumerate(stacks.tolist())]
    whole = tmp_path / "whole.json"
    cli.main(["verify", spinor_file(tmp_path / "in.json", entries), "--mode", mode, "--out", str(whole)])
    singles = []
    for e in entries:
        one = tmp_path / "one.json"
        cli.main(["verify", spinor_file(tmp_path / "in1.json", [e]), "--mode", mode, "--out", str(one)])
        singles += json.loads(one.read_text())["results"]
    doc = json.loads(whole.read_text())
    assert doc["meta"]["input_kind"] == "bilinears"
    assert doc["results"][cli.BLOCK + 3] == {"id": f"v{cli.BLOCK + 3}", "error": "residuals do not fit in float64"}
    assert sum("error" in row for row in doc["results"]) == 1
    assert json.dumps(doc["results"], indent=2, sort_keys=True) == json.dumps(singles, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [["classify", "in.json"], ["generate", "--class", "1"]],
                         ids=["classify", "generate"])
def test_classification_tol_zero_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    spinor_file(tmp_path / "in.json", [entry("a", [1, 0, 1, 0])])
    code, out = run_without_warnings(argv + ["--tol", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "tolerance must be positive" in run_cli.err


# -- generate -------------------------------------------------------------------


def test_generate_classifies_back(tmp_path, capsys):
    out_path = tmp_path / "c5.json"
    code, _ = run_cli(["generate", "--class", "5", "--count", "3", "--seed", "0",
                       "--out", str(out_path)], capsys=capsys)
    assert code == 0
    code, out = run_cli(["classify", str(out_path)], capsys=capsys)
    assert code == 0
    assert all(r["class"] == "5" for r in json.loads(out)["results"])


def test_generate_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["generate", "--class", "3", "--count", "4", "--seed", "11", "--out", str(a)],
            capsys=capsys)
    run_cli(["generate", "--class", "3", "--count", "4", "--seed", "11", "--out", str(b)],
            capsys=capsys)
    assert a.read_bytes() == b.read_bytes()


def test_generate_unreachable_target_is_usage_error(capsys):
    code, out = run_cli(["generate", "--class", "4", "--tol", "10"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "failed to converge" in run_cli.err


def test_generate_invalid_class_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["generate", "--class", "7", "--count", "1"])
    assert excinfo.value.code == 2


def test_generate_count_beyond_maximum_is_usage_error(capsys, monkeypatch):
    """The bound is checked while parsing, before anything is generated."""
    monkeypatch.setattr(lounesto, "generate", lambda *a, **k: pytest.fail("generate ran"))
    assert cli.build_parser().parse_args(
        ["generate", "--class", "1", "--count", str(cli.MAX_COUNT)]).count == cli.MAX_COUNT
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["generate", "--class", "1", "--count", str(cli.MAX_COUNT + 1)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--count: must be at most {cli.MAX_COUNT}" in captured.err


# -- verify ---------------------------------------------------------------------


def test_verify_fpk_random_spinors(tmp_path, capsys, rng):
    entries = [entry(f"r{i}", rng.standard_normal(4) + 1j * rng.standard_normal(4))
               for i in range(5)]
    f = spinor_file(tmp_path / "in.json", entries)
    code, out = run_cli(["verify", f, "--mode", "fpk"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_fpk_anomalous_bilinear_file(tmp_path, capsys):
    doc = {"version": 1, "entries": [{
        "id": "bad", "sigma": 0.0, "omega": 0.0,
        "J": [0, 0, 0, 0], "K": [1, 0, 0, 0], "S": [0, 0, 0, 0, 0, 0],
    }]}
    f = tmp_path / "b.json"
    f.write_text(json.dumps(doc))
    code, out = run_cli(["verify", str(f), "--mode", "fpk"], capsys=capsys)
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_verify_nan_covariant_is_schema_error(tmp_path, capsys):
    doc = {"version": 1, "entries": [{
        "id": "nan", "sigma": float("nan"), "omega": 0.0,
        "J": [1, 0, 0, 0], "K": [0, 1, 0, 0], "S": [0, 0, 0, 0, 0, 0],
    }]}
    f = tmp_path / "b.json"
    f.write_text(json.dumps(doc))
    code, out = run_cli(["verify", str(f), "--mode", "fpk"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "finite" in run_cli.err


def test_verify_boomerang_class5(tmp_path, capsys):
    gen = tmp_path / "c5.json"
    run_cli(["generate", "--class", "5", "--count", "3", "--seed", "2",
             "--out", str(gen)], capsys=capsys)
    code, out = run_cli(["verify", str(gen), "--mode", "boomerang"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_aggregate_mode(tmp_path, capsys, rng):
    entries = [entry("a", rng.standard_normal(4) + 1j * rng.standard_normal(4))]
    f = spinor_file(tmp_path / "in.json", entries)
    code, out = run_cli(["verify", f, "--mode", "aggregate"], capsys=capsys)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert len(row["residuals"]) == 5


# -- map4 -----------------------------------------------------------------------


def params_file(path, rng):
    values = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    while abs(values[1]) < 0.2:
        values[1] = complex(rng.standard_normal(), rng.standard_normal())
    names = ("m11", "m12", "m13", "m14", "m22", "m41", "m42", "m43", "m44")
    path.write_text(json.dumps({n: [v.real, v.imag] for n, v in zip(names, values)}))
    return str(path)


def test_map4_images_kill_scalars(tmp_path, capsys, rng):
    gen = tmp_path / "c1.json"
    run_cli(["generate", "--class", "1", "--count", "5", "--seed", "3",
             "--out", str(gen)], capsys=capsys)
    pf = params_file(tmp_path / "p.json", rng)
    code, out = run_cli(["map4", str(gen), "--params", pf], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["abs_det"] < 1e-10
    assert max(doc["meta"]["constraint_residuals"]) < 1e-10
    for row in doc["results"]:
        assert abs(row["sigma"]) < 1e-8
        assert abs(row["omega"]) < 1e-8
    assert sum(doc["class_histogram"].values()) == 5


def test_map4_rejects_zero_m12(tmp_path, capsys):
    gen = tmp_path / "c1.json"
    run_cli(["generate", "--class", "1", "--count", "1", "--seed", "0",
             "--out", str(gen)], capsys=capsys)
    pf = tmp_path / "p.json"
    names = ("m11", "m12", "m13", "m14", "m22", "m41", "m42", "m43", "m44")
    pf.write_text(json.dumps({n: [1.0, 0.0] if n != "m12" else [0.0, 0.0] for n in names}))
    code, _ = run_cli(["map4", str(gen), "--params", str(pf)], capsys=capsys)
    assert code == 2


def test_map4_error_rows(tmp_path, capsys, rng):
    """Entries that cannot be mapped get error rows in file order; the
    others are mapped and counted."""
    pf = params_file(tmp_path / "p.json", rng)
    params = json.loads((tmp_path / "p.json").read_text())
    m = classmap.build_M(classmap.MappingParams(**{k: complex(*v) for k, v in params.items()}))
    kernel = np.linalg.svd(m.matrix)[2][-1].conj()
    f = spinor_file(tmp_path / "in.json", [
        entry("a", [1, 0, 1, 0]), entry("zero", [0, 0, 0, 0]), entry("dirac", [1, 0, 1, 0], rep="dirac"),
        entry("c5", [1, 0, 0, -1]), entry("c6", [1, 0, 0, 0]), entry("kernel", kernel),
        entry("over", [1e200, 0, 1, 0]), entry("b", [1, 2, 3j, 4]),
    ])
    code, out = run_without_warnings(["map4", f, "--params", pf], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [r["id"] for r in doc["results"]] == ["a", "zero", "dirac", "c5", "c6", "kernel", "over", "b"]
    errors = {r["id"]: r.get("error") for r in doc["results"]}
    assert errors == {
        "a": None, "zero": "zero spinor", "dirac": "the mapping is written in the chiral representation",
        "c5": "input must be a regular spinor (class 1-3), got 5",
        "c6": "input must be a regular spinor (class 1-3), got 6",
        "kernel": "image vanishes: phi lies in the kernel of the mapping (det M = 0 guarantees a "
                  "nontrivial kernel)",
        "over": "covariants do not fit in float64", "b": None,
    }
    assert doc["class_histogram"] == {"4": 2}
    assert run_cli.err == ""


@pytest.mark.parametrize("value", [[float("nan"), 0], [0, float("inf")], [HUGE, 0], [True, 0]],
                         ids=["nan", "inf", "huge-int", "bool"])
def test_map4_bad_parameter_is_named(tmp_path, capsys, rng, value):
    f = spinor_file(tmp_path / "in.json", [entry("a", [1, 0, 1, 0])])
    pf = tmp_path / "p.json"
    params = json.loads(Path(params_file(pf, rng)).read_text())
    pf.write_text(json.dumps({**params, "m13": value}))
    code, out = run_cli(["map4", f, "--params", str(pf)], capsys=capsys)
    assert code == 2
    assert out == ""
    assert "p.json.m13: expected a [re, im] pair of finite numbers" in run_cli.err


@pytest.mark.parametrize("changes, message", [
    ({"m22": [1e300, 0], "m12": [1e-300, 0]}, "mapping matrix does not fit in float64"),
    ({n: [1e200, 1e200] for n in classmap.PARAM_NAMES},
     "constraint residuals of the mapping matrix do not fit in float64"),
], ids=["matrix", "residuals"])
def test_map4_overflowing_parameters_are_schema_error(tmp_path, capsys, rng, changes, message):
    """Finite parameters whose matrix, or its constraint residuals, overflow
    float64 are one error line naming the parameter file, with no warning."""
    f = spinor_file(tmp_path / "in.json", [entry("a", [1, 0, 1, 0])])
    pf = tmp_path / "p.json"
    params = json.loads(Path(params_file(pf, rng)).read_text())
    pf.write_text(json.dumps({**params, **changes}))
    code, out = run_without_warnings(["map4", f, "--params", str(pf)], capsys)
    assert code == 2
    assert out == ""
    assert run_cli.err == f"error: {pf}: {message}\n"


def test_map4_singular_determinant_is_schema_error(tmp_path, capsys):
    """A parameter of 1e308 breaks the LU of |det M| (a division by zero):
    one error line, with no numpy warning."""
    f = spinor_file(tmp_path / "in.json", [entry("a", [1, 0, 1, 0])])
    pf = tmp_path / "p.json"
    params = {name: [0.3 * k + 0.1, -0.2 * k] for k, name in enumerate(classmap.PARAM_NAMES)}
    pf.write_text(json.dumps({**params, "m12": [1e308, -0.2]}))
    code, out = run_without_warnings(["map4", f, "--params", str(pf)], capsys)
    assert code == 2
    assert out == ""
    assert run_cli.err == f"error: {pf}: constraint residuals of the mapping matrix do not fit in float64\n"


def test_map4_non_regular_entry_reported(tmp_path, capsys, rng):
    f = spinor_file(tmp_path / "in.json", [entry("weyl", [1, 0, 0, 0])])
    pf = params_file(tmp_path / "p.json", rng)
    code, out = run_cli(["map4", f, "--params", pf], capsys=capsys)
    assert code == 0
    assert "error" in json.loads(out)["results"][0]


# -- winding ----------------------------------------------------------------------


def test_winding_prints_one(tmp_path, capsys):
    f = circle_file(tmp_path / "c.json")
    code, out = run_cli(["winding", f], capsys=capsys)
    assert code == 0 and out.strip() == "1"


def test_winding_prints_zero(tmp_path, capsys):
    f = circle_file(tmp_path / "c.json", center=(3.0, 0.0))
    code, out = run_cli(["winding", f], capsys=capsys)
    assert code == 0 and out.strip() == "0"


def test_winding_origin_path_fails(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps([[1, 0], [0, 0], [0, 1], [1, 0]]))
    code, _ = run_cli(["winding", str(f)], capsys=capsys)
    assert code == 1
    assert "origin" in run_cli.err


SQUARE = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]]


def path_text(bad_vertex):
    """A closed path around the origin with its third vertex written as given."""
    vertices = [json.dumps(v) for v in SQUARE]
    vertices[2] = bad_vertex
    return "[" + ", ".join(vertices) + "]"


@pytest.mark.parametrize("vertex", [
    "[true, 0]", '["a", 0]', "[-1, 0, 3]", "[-1]", "-1", "null", "[1e400, 0]", "[Infinity, 0]", "[NaN, 0]",
    "[-" + "1" * 400 + ", 0]",
], ids=["bool", "string", "triple", "single", "number", "null", "1e400", "Infinity", "NaN", "huge-int"])
def test_winding_bad_vertex_is_schema_error(tmp_path, capsys, vertex):
    f = tmp_path / "p.json"
    f.write_text(path_text(vertex))
    code, out = run_cli(["winding", str(f)], capsys=capsys)
    assert code == 2 and out == ""
    assert run_cli.err.startswith(f"error: {f}[2]: expected a [sigma, omega] pair of finite numbers, got ")
    assert run_cli.err.count("\n") == 1


@pytest.mark.parametrize("path, reason", [
    ([[1, 0], [0, 1], [-1, 0]], "closed"), ([[1, 0], [1, 0]], "at least 3"), ([], "at least 3"),
    ([[1, 0], [-1, 0], [1, 0]], "too coarse"),
])
def test_winding_bad_path_still_fails_verification(tmp_path, capsys, path, reason):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(path))
    code, out = run_cli(["winding", str(f)], capsys=capsys)
    assert code == 1 and out == ""
    assert reason in run_cli.err


def test_deep_vertex_echo_is_bounded(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(path_text("[" * 900 + "1" + "]" * 900))
    code, out = run_cli(["winding", str(f)], capsys=capsys)
    assert code == 2 and out == ""
    prefix = f"error: {f}[2]: expected a [sigma, omega] pair of finite numbers, got "
    assert run_cli.err == prefix + "[" * cli.ECHO_CHARS + "...\n"


def test_long_integer_echo_is_bounded(tmp_path, capsys):
    f = tmp_path / "in.json"
    f.write_text('{"version": 1, "entries": [{"id": "a", "components": [[' + "7" * 400
                 + ', 0], [0, 0], [1, 0], [0, 0]]}]}')
    code, out = run_cli(["classify", str(f)], capsys=capsys)
    assert code == 2 and out == ""
    prefix = f"error: {f}: entries[0].components[0]: expected a [re, im] pair of finite numbers, got "
    assert run_cli.err == prefix + "[" + "7" * (cli.ECHO_CHARS - 1) + "...\n"


# -- undecodable files ---------------------------------------------------------------


def test_file_not_utf8_names_the_file(tmp_path, capsys):
    f = tmp_path / "in.json"
    f.write_bytes(b'\xff{"version": 1, "entries": []}')
    code, out = run_cli(["classify", str(f)], capsys=capsys)
    assert code == 2 and out == ""
    assert run_cli.err.startswith(f"error: cannot read {f}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("command", ["classify", "winding"])
@pytest.mark.parametrize("text, message", [
    ('{"version": 1, "entries": ' + "1" * 5000 + "}", "Exceeds the limit"),
    ("[" * 100000, "maximum recursion depth exceeded"),
], ids=["5000-digits", "deep-nesting"])
def test_undecodable_json_names_the_file(tmp_path, capsys, command, text, message):
    f = tmp_path / "in.json"
    f.write_text(text)
    code, out = run_cli([command, str(f)], capsys=capsys)
    assert code == 2 and out == ""
    assert run_cli.err.startswith(f"error: {f}: ") and message in run_cli.err
    assert run_cli.err.count("\n") == 1


# -- internal faults -----------------------------------------------------------------


def test_internal_consistency_fault_exits_3(tmp_path, capsys, monkeypatch):
    forms = np.zeros((16, 4, 4), dtype=complex)
    forms[1] = 1j * np.eye(4)  # anti-Hermitian: its sandwich is imaginary
    monkeypatch.setattr(bilinears, "_forms", lambda signature, rep: forms)
    f = spinor_file(tmp_path / "in.json", [entry("a", [1, 0, 1, 0])])
    code, out = run_cli(["classify", f], capsys=capsys)
    assert code == 3 and out == ""
    assert run_cli.err.startswith("error: internal consistency: omega acquired an imaginary part")
    assert run_cli.err.count("\n") == 1


# -- reconstruct -------------------------------------------------------------------


def test_reconstruct_round_trip(tmp_path, capsys, rng):
    entries = [entry(f"r{i}", rng.standard_normal(4) + 1j * rng.standard_normal(4))
               for i in range(4)]
    f = spinor_file(tmp_path / "in.json", entries)
    code, out = run_cli(["reconstruct", f], capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert all(r["pass"] for r in doc["results"])


# -- stability ---------------------------------------------------------------------


def test_reports_byte_stable(tmp_path, capsys):
    gen = tmp_path / "g.json"
    run_cli(["generate", "--class", "2", "--count", "3", "--seed", "8",
             "--out", str(gen)], capsys=capsys)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["classify", str(gen), "--out", str(a)], capsys=capsys)
    run_cli(["classify", str(gen), "--out", str(b)], capsys=capsys)
    assert a.read_bytes() == b.read_bytes()


def assert_canonical(out):
    """stdout is the indented, key-sorted form json.dumps gives its own parse."""
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("rep", ["weyl", "dirac"])
@pytest.mark.parametrize("cls", ["1", "2", "3", "4", "5", "6"])
def test_generate_output_is_canonical(capsys, cls, rep):
    code, out = run_cli(["generate", "--class", cls, "--rep", rep, "--count", "4", "--seed", "2"], capsys=capsys)
    assert code == 0
    assert_canonical(out)


def canonical_inputs(tmp_path, rng):
    generated = []
    for cls in "123456":
        for rep in ("weyl", "dirac"):
            generated += [entry(f"c{cls}-{rep}-{i}", psi.components, rep) for i, psi in enumerate(
                lounesto.generate(lounesto.LounestoClass(cls), seed=1, count=3, rep=clifford.rep_by_tag(rep)))]
    errors = [entry("a", [1, 0, 1, 0]), entry("zero", [0, 0, 0, 0]), entry("big", [1e200, 0, 1, 0]),
              entry("huge", [1e100, 0, 1e100, 0]), entry("dirac", [1, 0, 1, 0], "dirac"),
              entry("c5", [1, 0, 0, -1]), entry("q\"\\\u00e9\u2603", [1, 2, 3j, 4]), entry("c6", [1, 0, 0, 0])]
    covariants = [{"id": f"v{i}", "sigma": c[0], "omega": c[1], "J": c[2:6], "K": c[6:10], "S": c[10:]}
                  for i, c in enumerate(rng.standard_normal((5, 16)).tolist())]
    params_file(tmp_path / "params.json", rng)
    return {"generated": spinor_file(tmp_path / "gen.json", generated),
            "errors": spinor_file(tmp_path / "err.json", errors),
            "covariants": spinor_file(tmp_path / "cov.json", covariants)}


REPORTS = [["classify"], ["verify", "--mode", "fpk"], ["verify", "--mode", "boomerang"],
           ["verify", "--mode", "aggregate"], ["reconstruct"], ["map4", "--params", "params.json"]]


@pytest.mark.parametrize("kind, argv", [
    (kind, argv) for kind in ("generated", "errors") for argv in REPORTS
] + [("covariants", argv) for argv in REPORTS if argv[0] == "verify"])
def test_report_output_is_canonical(tmp_path, capsys, monkeypatch, rng, kind, argv):
    monkeypatch.chdir(tmp_path)
    f = canonical_inputs(tmp_path, rng)[kind]
    code, out = run_without_warnings([argv[0], f, *argv[1:]], capsys)
    assert code in (0, 1)
    assert run_cli.err == ""
    assert_canonical(out)


def test_import_leaves_hashlib_unloaded():
    """Only map4 hashes; the other commands do not pay for the import.  Run
    in a fresh interpreter, since pytest and hypothesis import hashlib."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spinorspace.cli; print('hashlib' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point_runs(tmp_path):
    f = circle_file(tmp_path / "c.json")
    proc = subprocess.run(
        [sys.executable, "-m", "spinorspace.cli", "winding", str(f)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"
