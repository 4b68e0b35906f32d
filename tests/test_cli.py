"""End-to-end command line behavior over JSON files."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spinorspace import classmap, cli


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


def test_console_entry_point_runs(tmp_path):
    f = circle_file(tmp_path / "c.json")
    proc = subprocess.run(
        [sys.executable, "-m", "spinorspace.cli", "winding", str(f)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"
