"""Correctness gate: every CLI report and API result is checked before its
time counts.  A check raises ``CheckError``; the caller counts the operation
as failed and drops its timing."""

from __future__ import annotations

import json

import numpy as np

from inputs import chiral_overlap


class CheckError(Exception):
    pass


def _reject_constant(token: str):
    raise CheckError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """Parse standard JSON only: NaN and Infinity tokens fail."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_exit(code: int, expected: int) -> None:
    expect(code == expected, f"exit code {code}, expected {expected}")


def _results(doc, ids: list[str]) -> list[dict]:
    expect(isinstance(doc, dict) and doc.get("version") == 1, "missing version 1 envelope")
    results = doc.get("results")
    expect(isinstance(results, list), "no results list")
    got = [r.get("id") if isinstance(r, dict) else None for r in results]
    expect(got == ids, f"ids incomplete or out of order ({len(got)} of {len(ids)})")
    for r in results:
        expect("error" not in r, f"{r['id']}: error {r.get('error')!r}")
    return results


def check_classify(code: int, text: str, ids: list[str], expected_class: str) -> None:
    check_exit(code, 0)
    for r in _results(strict_json(text), ids):
        expect(r.get("class") == expected_class,
               f"{r['id']}: class {r.get('class')!r}, expected {expected_class!r}")


def check_generate(code: int, text: str, lounesto_class: str, seed: int, count: int) -> None:
    """Ids, count and finite components; class 1 is also checked in closed form."""
    check_exit(code, 0)
    doc = strict_json(text)
    expect(isinstance(doc, dict) and doc.get("version") == 1, "missing version 1 envelope")
    entries = doc.get("entries")
    expect(isinstance(entries, list) and len(entries) == count, "wrong number of entries")
    ids = [f"c{lounesto_class}-s{seed}-{i:03d}" for i in range(count)]
    expect([e.get("id") for e in entries] == ids, "ids incomplete or out of order")
    comps = np.array([[complex(*p) for p in e["components"]] for e in entries])
    expect(comps.shape == (count, 4) and bool(np.all(np.isfinite(comps))), "bad components")
    if lounesto_class == "1":
        expect(all(e.get("rep") == "weyl" for e in entries), "expected weyl entries")
        overlap = chiral_overlap(comps)
        floor = 1e-9 * np.sum(np.abs(comps) ** 2, axis=1)
        expect(bool(np.all((np.abs(overlap.real) > floor) & (np.abs(overlap.imag) > floor))),
               "a generated spinor is not class 1")


def check_verify(code: int, text: str, ids: list[str], mode: str, kind: str,
                 expected_pass: list[bool]) -> None:
    """Per-entry pass flags must equal the expected ones: a perturbed point
    fails and every other point passes.  Exit 1 exactly when one fails."""
    check_exit(code, 0 if all(expected_pass) else 1)
    doc = strict_json(text)
    meta = doc.get("meta", {}) if isinstance(doc, dict) else {}
    expect(meta.get("mode") == mode and meta.get("input_kind") == kind, f"meta {meta!r}")
    results = _results(doc, ids)
    flags = [r.get("pass") for r in results]
    wrong = [r["id"] for r, f, e in zip(results, flags, expected_pass) if f is not e]
    expect(not wrong, f"{len(wrong)} pass flags wrong, first {wrong[:1]}")
    expect(doc.get("all_pass") is all(expected_pass), "all_pass wrong")


def check_reconstruct(code: int, text: str, ids: list[str]) -> None:
    check_exit(code, 0)
    doc = strict_json(text)
    for r in _results(doc, ids):
        expect(r.get("pass") is True, f"{r['id']}: reconstruction failed")
    expect(doc.get("all_pass") is True, "all_pass false")


def check_map4(code: int, text: str, ids: list[str]) -> list[dict]:
    """Every generic image is a flag-dipole (class 4) with nothing degenerate."""
    check_exit(code, 0)
    results = _results(strict_json(text), ids)
    for r in results:
        expect(r.get("class") == "4", f"{r['id']}: image class {r.get('class')!r}")
        expect(r.get("degenerate") == [], f"{r['id']}: degenerate {r.get('degenerate')!r}")
    return results


def check_winding(code: int, text: str, winding: int) -> None:
    check_exit(code, 0)
    got = strict_json(text)
    expect(type(got) is int and got == winding, f"winding {got!r}, expected {winding}")


def check_close(got, want, rel: float, what: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    expect(bool(np.all(np.abs(got - want) <= rel * scale)), f"{what} off by more than {rel:g}")
