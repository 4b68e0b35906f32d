"""Command line interface: JSON in, JSON out, deterministic given flags.

Commands
    classify     label each spinor in a file with its class report
    generate     emit seeded representative spinors of a requested class
    verify       residual tables for the quadratic identity families
    map4         push regular spinors through a singular class-4 mapping
    winding      winding number of a closed (sigma, omega) path
    reconstruct  rebuild each spinor from its own aggregate and compare

Exit codes: 0 success, 1 verification failure, 2 usage or schema error.
Input paths accept "-" for stdin.  Complex numbers are [re, im] pairs.

classify, verify, reconstruct and map4 compute BLOCK entries at a time,
grouped by representation, and write one row per entry in file order.  An
entry that cannot be computed (a zero spinor, covariants or residuals that
overflow float64, a degenerate reconstruction, a map4 input that is not a
regular Weyl spinor or lies in the kernel) gets an {id, error} row:
classify and map4 still exit 0, verify and reconstruct count it as a
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter

import numpy as np

from . import classmap, fierz, lounesto
from .bilinears import BilinearSet, bilinear_covariants
from .clifford import RowError, Signature, rep_by_tag
from .spinor_forms import ClassicalSpinor

SCHEMA_VERSION = 1

# entries computed together: amortises the per-call cost over a block while
# bounding the (BLOCK, 16, 16) temporaries of verify --mode aggregate
BLOCK = 64

_COVARIANT_FIELDS = ("sigma", "omega", "J", "K", "S")


class SchemaError(Exception):
    pass


# -- JSON plumbing ------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _dump(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _complex_from_pair(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)):
        raise SchemaError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite, non-negative float."""
    value = float(text)
    if not np.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _require_version(doc, where: str) -> None:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object at top level")
    if doc.get("version") != SCHEMA_VERSION:
        raise SchemaError(f"{where}: missing or unsupported version (expected {SCHEMA_VERSION})")


def _entries_of(doc, where: str) -> list:
    _require_version(doc, where)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise SchemaError(f"{where}: 'entries' must be a list")
    return entries


def _parse_spinor_entries(doc, where: str) -> list[dict]:
    out = []
    for pos, entry in enumerate(_entries_of(doc, where)):
        here = f"{where}: entries[{pos}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{here}: expected an object")
        ident = entry.get("id", f"entry-{pos}")
        rep_tag = entry.get("rep", "weyl")
        if rep_tag not in ("weyl", "dirac"):
            raise SchemaError(f"{here}: rep must be 'weyl' or 'dirac'")
        comps = entry.get("components")
        if not isinstance(comps, list) or len(comps) != 4:
            raise SchemaError(f"{here}: components must be 4 [re, im] pairs")
        values = np.array(
            [_complex_from_pair(c, f"{here}.components[{k}]") for k, c in enumerate(comps)]
        )
        if not np.all(np.isfinite(values.view(np.float64))):
            raise SchemaError(f"{here}: components must be finite")
        out.append({"id": str(ident), "rep": rep_tag, "components": values})
    return out


def _parse_bilinear_entries(doc, where: str) -> list[dict]:
    out = []
    for pos, entry in enumerate(_entries_of(doc, where)):
        here = f"{where}: entries[{pos}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{here}: expected an object")
        ident = str(entry.get("id", f"entry-{pos}"))
        try:
            b = BilinearSet(
                float(entry["sigma"]),
                float(entry["omega"]),
                np.array(entry["J"], dtype=float),
                np.array(entry["K"], dtype=float),
                np.array(entry["S"], dtype=float),
                Signature.MINKOWSKI,
            )
        except KeyError as exc:
            raise SchemaError(f"{here}: missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{here}: {exc}") from exc
        out.append({"id": ident, "bilinears": b})
    return out


def load_spinor_file(path: str) -> list[dict]:
    """Entries of a spinor file: {id, rep, components: 4 [re, im] pairs}."""
    return _parse_spinor_entries(_load_json(path), path)


def _entry_kind(entry) -> str:
    """'bilinears' for an object with any covariant field, else 'spinors'."""
    if isinstance(entry, dict) and any(name in entry for name in _COVARIANT_FIELDS):
        return "bilinears"
    return "spinors"


def _detect_input_kind(path: str) -> tuple[str, list[dict]]:
    """The file's kind, set by its first entry, and its parsed entries; a
    later entry of the other kind is a schema error."""
    doc = _load_json(path)
    entries = _entries_of(doc, path)
    kind = _entry_kind(entries[0]) if entries else "spinors"
    names = {"spinors": "a spinor", "bilinears": "a covariant"}
    for pos, entry in enumerate(entries):
        if _entry_kind(entry) != kind:
            raise SchemaError(
                f"{path}: entries[{pos}] is {names[_entry_kind(entry)]} entry, "
                f"but entries[0] makes this {names[kind]} file"
            )
    if kind == "bilinears":
        return kind, _parse_bilinear_entries(doc, path)
    return kind, _parse_spinor_entries(doc, path)


def spinor_entry_to_json(ident: str, rep_tag: str, components: np.ndarray) -> dict:
    return {
        "id": ident,
        "rep": rep_tag,
        "components": [_pair(z) for z in components],
    }


def load_mapping_params(path: str) -> classmap.MappingParams:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object of mapping parameters")
    values = {}
    for name in classmap.PARAM_NAMES:
        if name not in doc:
            raise SchemaError(f"{path}: missing parameter {name}")
        values[name] = _complex_from_pair(doc[name], f"{path}.{name}")
    try:
        return classmap.MappingParams(**values)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# -- commands ------------------------------------------------------------------


def _blocks(entries: list) -> list[list]:
    return [entries[start:start + BLOCK] for start in range(0, len(entries), BLOCK)]


def _retrying(live: np.ndarray, compute) -> dict[int, dict]:
    """Row dicts by position for the True entries of the boolean mask live.

    compute(live) returns one row per True entry.  Entries it rejects with
    RowError get an error row instead, and the rest are computed again
    without them.
    """
    live = live.copy()
    rows = {}
    while live.any():
        try:
            computed = compute(live)
        except RowError as exc:
            rejected = np.flatnonzero(live)[exc.rows].tolist()
            rows.update((i, {"error": str(exc)}) for i in rejected)
            live[rejected] = False
            continue
        rows.update(zip(np.flatnonzero(live).tolist(), computed))
        break
    return rows


def _spinor_rows(entries: list[dict], compute) -> list[dict]:
    """One row per spinor entry, in file order, computed a block at a time.

    compute(psi) takes a batch of spinors in one representation and returns
    a row dict per spinor.  A zero spinor, or a spinor that compute rejects
    with RowError, gets an error row instead.
    """
    results = []
    for block in _blocks(entries):
        rows: list[dict] = [{} for _ in block]
        for tag in ("weyl", "dirac"):
            pos = [i for i, entry in enumerate(block) if entry["rep"] == tag]
            comps = np.array([block[i]["components"] for i in pos]).reshape(-1, 4)
            computed = _retrying((comps != 0).any(axis=-1),
                                 lambda live: compute(ClassicalSpinor(comps[live], rep_by_tag(tag))))
            for k, i in enumerate(pos):
                rows[i] = computed.get(k, {"error": "zero spinor"})
        results += [{"id": entry["id"], **row} for entry, row in zip(block, rows)]
    return results


def cmd_classify(args) -> int:
    entries = load_spinor_file(args.input)
    results = _spinor_rows(entries, lambda psi: lounesto.classify(psi, args.tol).as_dict())
    _dump({
        "version": SCHEMA_VERSION,
        "meta": {"command": "classify", "tol": args.tol},
        "results": results,
    }, args.out)
    return 0


def cmd_generate(args) -> int:
    target = lounesto.LounestoClass(args.lounesto_class)
    rep = rep_by_tag(args.rep)
    spinors = lounesto.generate(target, args.seed, args.count, rep=rep, tol=args.tol)
    entries = [
        spinor_entry_to_json(
            f"c{args.lounesto_class}-s{args.seed}-{i:03d}", args.rep, psi.components
        )
        for i, psi in enumerate(spinors)
    ]
    _dump({"version": SCHEMA_VERSION, "entries": entries}, args.out)
    return 0


def _verify_rows(b: BilinearSet, mode: str, tol: float) -> list[dict]:
    """One verify row per set of the 1-d covariant batch b.  Sets whose norm
    or residuals do not fit in float64 raise RowError."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(b.component_norm(), 1e-300)
        if mode == "fpk":
            res = fierz.fpk_residuals(b)
            residuals = res.as_dict()
            values = np.stack(list(residuals.values()), axis=-1)
            within = np.abs(values) <= tol * scale[:, None] ** 2
            passes = res.passes(tol, scale)
        elif mode == "boomerang":
            values = fierz.boomerang_residual(fierz.aggregate(b), b.sigma)[:, None]
            passes = values[:, 0] <= tol
        else:
            z = fierz.aggregate(b)
            zscale = np.maximum(z.norm() ** 2, 1e-300)
            res5 = fierz.generalized_fpk_residuals(z, b)
            values = res5 / zscale[:, None]
            passes = res5.max(axis=-1) <= tol * zscale
    unfit = ~np.isfinite(scale) | ~np.isfinite(values).all(axis=-1)
    if unfit.any():
        raise RowError("residuals do not fit in float64", unfit)
    if mode == "fpk":
        return [
            {**dict(zip(residuals, v)), "pass_per_identity": dict(zip(residuals, w)), "pass": ok}
            for v, w, ok in zip(values.tolist(), within.tolist(), passes.tolist())
        ]
    if mode == "boomerang":
        return [{"residual": r, "pass": ok} for r, ok in zip(values[:, 0].tolist(), passes.tolist())]
    return [{"residuals": r, "pass": ok} for r, ok in zip(values.tolist(), passes.tolist())]


def cmd_verify(args) -> int:
    kind, entries = _detect_input_kind(args.input)
    if kind == "spinors":
        results = _spinor_rows(
            entries, lambda psi: _verify_rows(bilinear_covariants(psi), args.mode, args.tol))
    else:
        results = []
        for block in _blocks(entries):
            stack = np.array([entry["bilinears"].stack() for entry in block])
            rows = _retrying(np.ones(len(block), dtype=bool), lambda live: _verify_rows(
                BilinearSet.from_stack(stack[live]), args.mode, args.tol))
            results += [{"id": entry["id"], **rows[k]} for k, entry in enumerate(block)]
    all_pass = all(row.get("pass", False) for row in results)
    _dump({
        "version": SCHEMA_VERSION,
        "meta": {"command": "verify", "mode": args.mode, "tol": args.tol, "input_kind": kind},
        "results": results,
        "all_pass": all_pass,
    }, args.out)
    return 0 if all_pass else 1


def _map4_rows(m: classmap.MappingMatrix, psi: ClassicalSpinor, tol: float) -> list[dict]:
    """Image, class, scalars and degenerate covariants of each spinor of the batch."""
    mapped = classmap.map_to_class4(m, psi, tol)
    b = mapped.report.bilinears
    # [re, im] pairs of every image component, as _pair would give them
    images = mapped.spinor.components.view(np.float64).reshape(-1, 4, 2).tolist()
    return [
        {"image": image, "class": cls.value, "sigma": sigma, "omega": omega, "degenerate": list(names)}
        for image, cls, sigma, omega, names in zip(
            images, mapped.report.lounesto_class, b.sigma.tolist(), b.omega.tolist(), mapped.degenerate)
    ]


def cmd_map4(args) -> int:
    params = load_mapping_params(args.params)
    entries = load_spinor_file(args.input)
    m = classmap.build_M(params)
    r0, r123 = classmap.constraint_residuals(m.matrix)
    params_blob = json.dumps(
        {k: _pair(v) for k, v in params.as_dict().items()}, sort_keys=True
    ).encode()
    results = _spinor_rows(entries, lambda psi: _map4_rows(m, psi, args.tol))
    histogram = Counter(row["class"] for row in results if "class" in row)
    _dump({
        "version": SCHEMA_VERSION,
        "meta": {
            "command": "map4",
            "tol": args.tol,
            "params_hash": hashlib.sha256(params_blob).hexdigest()[:16],
            "abs_det": classmap.no_inverse_witness(m),
            "constraint_residuals": [r0, r123],
        },
        "results": results,
        "class_histogram": histogram,
    }, args.out)
    return 0


def cmd_winding(args) -> int:
    from .topology import winding_report

    doc = _load_json(args.input)
    if not isinstance(doc, list):
        raise SchemaError(f"{args.input}: expected a top-level list of [sigma, omega] pairs")
    try:
        report = winding_report(doc)
    except ValueError as exc:
        print(f"winding: {exc}", file=sys.stderr)
        return 1
    print(report.winding)
    return 0


def _reconstruct_rows(psi: ClassicalSpinor, tol: float) -> list[dict]:
    """Rebuild each spinor of the batch from its own aggregate."""
    z = fierz.aggregate(bilinear_covariants(psi))
    recovered = fierz.reconstruct(z, fierz.default_probe_spinor(z, psi.rep), psi_ref=psi)
    err = np.abs(recovered.components - psi.components).max(axis=-1)
    ok = err <= tol * np.maximum(psi.norm(), 1e-300)
    return [{"max_abs_error": e, "pass": p} for e, p in zip(err.tolist(), ok.tolist())]


def cmd_reconstruct(args) -> int:
    entries = load_spinor_file(args.input)
    results = _spinor_rows(entries, lambda psi: _reconstruct_rows(psi, args.tol))
    all_pass = all(row.get("pass", False) for row in results)
    _dump({
        "version": SCHEMA_VERSION,
        "meta": {"command": "reconstruct", "tol": args.tol},
        "results": results,
        "all_pass": all_pass,
    }, args.out)
    return 0 if all_pass else 1


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinorspace",
        description="Classify, verify, map, and reconstruct spinors over JSON files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify each spinor in a file")
    p.add_argument("input", help="spinor file path or - for stdin")
    p.add_argument("--tol", type=_tolerance, default=lounesto.DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("generate", help="emit seeded spinors of one class")
    p.add_argument("--class", dest="lounesto_class", required=True,
                   choices=["1", "2", "3", "4", "5", "6"])
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rep", choices=["weyl", "dirac"], default="weyl")
    p.add_argument("--tol", type=_tolerance, default=lounesto.DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="identity residual tables")
    p.add_argument("input", help="spinor or covariant file path, - for stdin")
    p.add_argument("--mode", choices=["fpk", "aggregate", "boomerang"], default="fpk")
    p.add_argument("--tol", type=_tolerance, default=lounesto.DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("map4", help="apply a class-4 mapping to regular spinors")
    p.add_argument("input", help="spinor file path or - for stdin")
    p.add_argument("--params", required=True, help="mapping parameter JSON path")
    p.add_argument("--tol", type=_tolerance, default=lounesto.DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_map4)

    p = sub.add_parser("winding", help="winding number of a closed plane path")
    p.add_argument("input", help="path JSON (list of [sigma, omega]) or - for stdin")
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("reconstruct", help="rebuild spinors from their aggregates")
    p.add_argument("input", help="spinor file path or - for stdin")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
