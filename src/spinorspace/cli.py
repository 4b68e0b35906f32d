"""Command line interface: JSON in, JSON out, deterministic given flags.

Commands
    classify     label each spinor in a file with its class report
    generate     emit seeded representative spinors of a requested class
    verify       residual tables for the quadratic identity families
    map4         push regular spinors through a singular class-4 mapping
    winding      winding number of a closed (sigma, omega) path
    reconstruct  rebuild each spinor from its own aggregate and compare

Exit codes: 0 success, 1 verification failure (a verify or reconstruct
report whose all_pass is false), 2 usage or schema error, 3 internal fault
(a result that breaks an invariant of the program, such as a covariant with
an imaginary part).  Input paths accept "-" for stdin.
Complex numbers are [re, im] pairs.  Every number read from a spinor,
covariant, mapping parameter or winding path file must be an int or float
(not a bool) that is finite in float64; anything else, such as true, "1",
NaN or an integer beyond float range, is a schema error naming the field,
as is a path vertex that is not a [sigma, omega] pair; the error line
echoes at most ECHO_CHARS characters of the value.  Mapping parameters whose
matrix, or its constraint residuals, overflow float64 are a schema error
naming the parameter file, and generate --count above MAX_COUNT is a usage
error.  A path that is open, touches the origin, has fewer than 3 vertices
or is too coarse exits 1.

classify, verify, reconstruct and map4 run one pipeline.  A file is read
as one array of components or covariants; one block loop computes BLOCK
entries at a time into one array per field, the entries of a block grouped
by representation (a covariant file is one group); and one report writer
adds the envelope and all_pass, and jsonio.dumps writes the report's rows
from those arrays in file order, byte for byte as json.dumps(report,
indent=2, sort_keys=True, allow_nan=False) would.  classify, verify and
reconstruct compute each entry on its power-of-two ray and print absolute
values at its own scale by an exact ldexp.  An entry that cannot be
computed (a zero spinor, covariants that overflow float64 at its own scale,
for verify also their squared norm or residuals, a map4 input that is not
a regular Weyl spinor or lies in the kernel) gets an {id, error} row, which
fails verify and reconstruct.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

import numpy as np

from . import classmap, fierz, lounesto
from .bilinears import BilinearSet, _fitting, bilinear_covariants
from .clifford import InternalError, RowError, _ldexp_quiet, _ray, rep_by_tag
from .jsonio import Rows, dumps, floats
from .spinor_forms import ClassicalSpinor
from .topology import winding_report

SCHEMA_VERSION = 1

# entries computed together: amortises the per-call cost over a block while
# bounding the (BLOCK, 16, 16) temporaries of verify --mode aggregate
BLOCK = 64

_REPS = ("weyl", "dirac")
_PAIR = "a [re, im] pair of finite numbers"
# the covariant fields in stored order, with their shapes
_COVARIANT_FIELDS = (("sigma", ()), ("omega", ()), ("J", (4,)), ("K", (4,)), ("S", (6,)))
# generate --count beyond this is a usage error: the report is built in memory
MAX_COUNT = 100_000
# longest echo of an offending value in an error line, before "..."
ECHO_CHARS = 80


class SchemaError(Exception):
    pass


# -- JSON plumbing ------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # integers of more digits than int() takes, nesting deeper than the decoder goes
        raise SchemaError(f"{path}: {exc}") from exc


def _dump(report: dict, out: str | None) -> None:
    text = dumps(report) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _echo(value) -> str:
    """repr of value, cut after ECHO_CHARS characters."""
    text = repr(value)
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."


def _field(value, shape: tuple, where: str, what: str) -> np.ndarray:
    """The numbers of one field as jsonio.floats reads them; anything else
    is a SchemaError naming the field where, saying what it expected and
    echoing the value."""
    values = floats(value, shape)
    if values is None:
        raise SchemaError(f"{where}: expected {what}, got {_echo(value)}")
    return values


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite, non-negative float."""
    value = float(text)
    if not np.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type for generate --count: an int of at most MAX_COUNT."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_COUNT}, got {text!r}")
    return value


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


def _ids(entries: list) -> np.ndarray:
    return np.array([str(entry.get("id", f"entry-{pos}")) for pos, entry in enumerate(entries)], dtype=object)


def _check_spinor_entry(entry, here: str) -> None:
    if not isinstance(entry, dict):
        raise SchemaError(f"{here}: expected an object")
    if entry.get("rep", "weyl") not in _REPS:
        raise SchemaError(f"{here}: rep must be 'weyl' or 'dirac'")
    comps = entry.get("components")
    if not isinstance(comps, list) or len(comps) != 4:
        raise SchemaError(f"{here}: components must be 4 [re, im] pairs")
    for k, pair in enumerate(comps):
        _field(pair, (2,), f"{here}.components[{k}]", _PAIR)


def _parse_spinor_entries(doc, where: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ids, rep tags and (n, 4) complex components of a spinor file's entries.

    The components of all entries are read as one array; only when that
    fails are the entries checked one at a time, so that the error names
    the first bad one.
    """
    entries = _entries_of(doc, where)
    values = None
    if all(isinstance(entry, dict) and entry.get("rep", "weyl") in _REPS for entry in entries):
        values = floats([entry.get("components") for entry in entries] or np.empty((0, 4, 2)),
                         (len(entries), 4, 2))
    if values is None:
        for pos, entry in enumerate(entries):
            _check_spinor_entry(entry, f"{where}: entries[{pos}]")
        raise SchemaError(f"{where}: unreadable spinor entries")
    reps = np.array([entry.get("rep", "weyl") for entry in entries], dtype=object)
    return _ids(entries), reps, values.view(np.complex128)[..., 0]


def _check_covariant_entry(entry, here: str) -> None:
    if not isinstance(entry, dict):
        raise SchemaError(f"{here}: expected an object")
    for name, shape in _COVARIANT_FIELDS:
        if name not in entry:
            raise SchemaError(f"{here}: missing field {name!r}")
        what = f"{shape[0]} finite numbers" if shape else "a finite number"
        _field(entry[name], shape, f"{here}.{name}", what)


def _parse_bilinear_entries(doc, where: str) -> tuple[np.ndarray, np.ndarray]:
    """Ids and the (n, 16) covariant stacks of a covariant file's entries,
    read field by field for the whole file like _parse_spinor_entries."""
    entries = _entries_of(doc, where)
    n = len(entries)
    columns = []
    if all(isinstance(entry, dict) for entry in entries):
        for name, shape in _COVARIANT_FIELDS:
            column = floats([entry.get(name) for entry in entries] or np.empty((0,) + shape), (n,) + shape)
            if column is None:
                break
            columns.append(column)
    if len(columns) < len(_COVARIANT_FIELDS):
        for pos, entry in enumerate(entries):
            _check_covariant_entry(entry, f"{where}: entries[{pos}]")
        raise SchemaError(f"{where}: unreadable covariant entries")
    return _ids(entries), np.column_stack(columns)


def load_spinor_file(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ids, rep tags and (n, 4) complex components of the entries of a
    spinor file: {id, rep, components: 4 [re, im] pairs}."""
    return _parse_spinor_entries(_load_json(path), path)


def _entry_kind(entry) -> str:
    """'bilinears' for an object with any covariant field, else 'spinors'."""
    if isinstance(entry, dict) and any(name in entry for name, _ in _COVARIANT_FIELDS):
        return "bilinears"
    return "spinors"


def _detect_input_kind(path: str) -> tuple[str, tuple]:
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


def load_mapping_params(path: str) -> classmap.MappingParams:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object of mapping parameters")
    values = {}
    for name in classmap.PARAM_NAMES:
        if name not in doc:
            raise SchemaError(f"{path}: missing parameter {name}")
        re_im = _field(doc[name], (2,), f"{path}.{name}", _PAIR)
        values[name] = complex(re_im[0], re_im[1])
    try:
        return classmap.MappingParams(**values)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# -- commands ------------------------------------------------------------------


def _rows(ids: np.ndarray, tags: np.ndarray, compute, errors=()) -> Rows:
    """The report rows of a file's entries, computed BLOCK entries at a time.

    The entries of a block with the same tag are computed together:
    compute(pos) returns the columns of the entries at positions pos.
    Entries it rejects with RowError get {id, error} rows, and the rest are
    computed again without them.  errors holds (positions, message) pairs
    of entries whose error row is known already; their tag is None.
    """
    done, errors = [], list(errors)
    for start in range(0, len(ids), BLOCK):
        block = tags[start:start + BLOCK]
        for tag in dict.fromkeys(block.tolist()):
            pos = start + np.flatnonzero(block == tag)
            live = np.full(len(pos), tag is not None)
            while live.any():
                try:
                    done.append((pos[live], compute(pos[live])))
                    break
                except RowError as exc:
                    rejected = np.flatnonzero(live)[exc.rows]
                    errors.append((pos[rejected], str(exc)))
                    live[rejected] = False
    groups = []
    if done:
        pos = np.concatenate([p for p, _ in done])
        columns = {name: np.concatenate([c[name] for _, c in done]) if isinstance(value, np.ndarray) else value
                   for name, value in done[0][1].items()}
        groups.append((pos, {"id": ids[pos], **columns}))
    errors = [(p, message) for p, message in errors if len(p)]
    if errors:
        pos = np.concatenate([p for p, _ in errors])
        messages = np.repeat(np.array([m for _, m in errors], dtype=object), [len(p) for p, _ in errors])
        groups.append((pos, {"error": messages, "id": ids[pos]}))
    return Rows(groups)


def _spinor_rows(ids: np.ndarray, reps: np.ndarray, comps: np.ndarray, compute) -> Rows:
    """The rows of a spinor file's entries, grouped by representation:
    compute(psi) takes a batch of nonzero spinors in one representation and
    returns their columns.  A zero spinor gets an error row."""
    zero = ~(comps != 0).any(axis=-1)
    return _rows(ids, np.where(zero, None, reps),
                 lambda pos: compute(ClassicalSpinor(comps[pos], rep_by_tag(reps[pos[0]]))),
                 [(np.flatnonzero(zero), "zero spinor")])


def _report(args, rows: Rows, meta: dict | None = None, **fields) -> int:
    """Write the report of a file command and return its exit code.  verify
    and reconstruct add all_pass, whether every row passed, and exit 1 when
    it is false; every other report exits 0."""
    report = {"version": SCHEMA_VERSION, "meta": {"command": args.command, "tol": args.tol, **(meta or {})},
              "results": rows, **fields}
    if args.command in ("verify", "reconstruct"):
        report["all_pass"] = rows.all_true("pass")
    _dump(report, args.out)
    return 0 if report.get("all_pass", True) else 1


def _class_values(classes: np.ndarray) -> np.ndarray:
    return np.array([cls.value for cls in classes.tolist()], dtype=object)


def _classify_rows(psi: ClassicalSpinor, tol: float) -> dict:
    """Class, covariants, zero flags and margin of each spinor of the batch."""
    report = lounesto.classify(psi, tol)
    b = report.bilinears
    return {
        "class": _class_values(report.lounesto_class), "sigma": b.sigma, "omega": b.omega,
        "J": b.J, "K": b.K, "S": b.S, "margin": report.margin, "tol": report.tol,
        **{f"zero_flags.{key}": flags for key, flags in report.zero_flags.items()},
    }


def cmd_classify(args) -> int:
    return _report(args, _spinor_rows(*load_spinor_file(args.input), lambda psi: _classify_rows(psi, args.tol)))


def cmd_generate(args) -> int:
    target = lounesto.LounestoClass(args.lounesto_class)
    rep = rep_by_tag(args.rep)
    spinors = lounesto.generate(target, args.seed, args.count, rep=rep, tol=args.tol)
    comps = np.array([psi.components for psi in spinors])
    ids = np.array([f"c{args.lounesto_class}-s{args.seed}-{i:03d}" for i in range(len(spinors))], dtype=object)
    entries = Rows([(np.arange(len(ids)), {
        "id": ids, "rep": args.rep, "components": comps.view(np.float64).reshape(-1, 4, 2),
    })])
    _dump({"version": SCHEMA_VERSION, "entries": entries}, args.out)
    return 0


def _ray_covariants(psi: ClassicalSpinor) -> tuple[ClassicalSpinor, np.ndarray, BilinearSet]:
    """(ray, e, b): psi on its ray, psi = ray 2^e, and the ray's covariants b,
    psi's being b 4^e.  Spinors whose covariants do not fit in float64 raise
    RowError."""
    comps, e = _ray(psi.components)
    ray = ClassicalSpinor._of(comps, rep=psi.rep)
    b = bilinear_covariants(ray)
    _fitting(_ldexp_quiet(b.stack(), 2 * e))
    return ray, e, b


def _verify_rows(b: BilinearSet, mode: str, tol: float, e=0) -> dict:
    """The verify columns of the covariants b 4^e = ray 2^shift, b a 1-d
    batch and e 0 or of shape (n, 1), computed on their ray.  Sets whose
    squared norm or residuals do not fit in float64 at that scale raise
    RowError."""
    parts, shift = _ray(b.stack())
    ray = BilinearSet._of(parts, signature=b.signature)
    shift = shift + 2 * e
    if mode == "fpk":
        res, within = fierz._fpk_check(ray, tol)
        values, passes = _ldexp_quiet(res, 2 * shift), within.all(axis=-1)
    elif mode == "boomerang":
        values = fierz.boomerang_residual(fierz.aggregate(ray), ray.sigma)[:, None]
        passes = values[:, 0] <= tol
    else:
        z = fierz.aggregate(ray)
        # |Z|^2 is of order 1 on the ray: the floor holds only for the zero set
        zscale = np.maximum(z.norm() ** 2, 1e-300)
        res5 = fierz.generalized_fpk_residuals(z, ray)
        values = res5 / zscale[:, None]
        passes = res5.max(axis=-1) <= tol * zscale
    norm2 = _ldexp_quiet(ray.component_norm() ** 2, 2 * shift[:, 0])
    unfit = ~np.isfinite(norm2) | ~np.isfinite(values).all(axis=-1)
    if unfit.any():
        raise RowError("residuals do not fit in float64", unfit)
    if mode == "fpk":
        return {
            **{f"r{k + 1}": values[:, k] for k in range(4)},
            **{f"pass_per_identity.r{k + 1}": within[:, k] for k in range(4)},
            "pass": passes,
        }
    if mode == "boomerang":
        return {"residual": values[:, 0], "pass": passes}
    return {"residuals": values, "pass": passes}


def cmd_verify(args) -> int:
    kind, entries = _detect_input_kind(args.input)
    if kind == "spinors":
        def compute(psi):
            _, e, b = _ray_covariants(psi)
            return _verify_rows(b, args.mode, args.tol, e)
        rows = _spinor_rows(*entries, compute)
    else:
        ids, stack = entries
        # a covariant file is one group
        rows = _rows(ids, np.zeros(len(ids)), lambda pos: _verify_rows(
            BilinearSet.from_stack(stack[pos]), args.mode, args.tol))
    return _report(args, rows, {"mode": args.mode, "input_kind": kind})


def _map4_rows(m: classmap.MappingMatrix, psi: ClassicalSpinor, tol: float) -> dict:
    """Image, class, scalars and degenerate covariants of each spinor of the batch."""
    mapped = classmap.map_to_class4(m, psi, tol)
    b = mapped.report.bilinears
    return {
        "image": mapped.spinor.components.view(np.float64).reshape(-1, 4, 2),
        "class": _class_values(mapped.report.lounesto_class),
        "sigma": b.sigma, "omega": b.omega, "degenerate": mapped.degenerate,
    }


def cmd_map4(args) -> int:
    import hashlib   # only map4 uses it, and no other command should pay for its import

    params = load_mapping_params(args.params)
    spinors = load_spinor_file(args.input)
    try:
        m = classmap.build_M(params)
        with np.errstate(all="ignore"):
            r0, r123 = classmap.constraint_residuals(m.matrix)
            abs_det = classmap.no_inverse_witness(m)
        if not np.isfinite([r0, r123, abs_det]).all():
            raise ValueError("constraint residuals of the mapping matrix do not fit in float64")
    except ValueError as exc:
        raise SchemaError(f"{args.params}: {exc}") from exc
    params_blob = json.dumps(
        {k: [v.real, v.imag] for k, v in params.as_dict().items()}, sort_keys=True
    ).encode()
    rows = _spinor_rows(*spinors, lambda psi: _map4_rows(m, psi, args.tol))
    histogram = Counter(cls for _, columns in rows.groups for cls in columns.get("class", ()))
    meta = {"params_hash": hashlib.sha256(params_blob).hexdigest()[:16], "abs_det": abs_det,
            "constraint_residuals": [r0, r123]}
    return _report(args, rows, meta, class_histogram=histogram)


def cmd_winding(args) -> int:
    doc = _load_json(args.input)
    if not isinstance(doc, list):
        raise SchemaError(f"{args.input}: expected a top-level list of [sigma, omega] pairs")
    path = floats(doc or np.empty((0, 2)), (len(doc), 2))
    if path is None:
        for k, vertex in enumerate(doc):
            _field(vertex, (2,), f"{args.input}[{k}]", "a [sigma, omega] pair of finite numbers")
        raise SchemaError(f"{args.input}: unreadable path")
    try:
        report = winding_report(path)
    except ValueError as exc:
        print(f"winding: {exc}", file=sys.stderr)
        return 1
    print(report.winding)
    return 0


def _reconstruct_rows(psi: ClassicalSpinor, tol: float) -> dict:
    """Rebuild each spinor of the batch from its own aggregate, on its ray."""
    ray, e, b = _ray_covariants(psi)
    z = fierz.aggregate(b)
    recovered = fierz.reconstruct(z, fierz.default_probe_spinor(z, ray.rep), psi_ref=ray)
    err = np.abs(recovered.components - ray.components).max(axis=-1)
    return {"max_abs_error": np.ldexp(err, e[:, 0]), "pass": err <= tol * ray.norm()}


def cmd_reconstruct(args) -> int:
    return _report(args, _spinor_rows(*load_spinor_file(args.input), lambda psi: _reconstruct_rows(psi, args.tol)))


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinorspace",
        description="Classify, verify, map, and reconstruct spinors over JSON files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    spinor_file = "spinor file path or - for stdin"

    def command(name: str, func, summary: str, input_help: str | None = None) -> argparse.ArgumentParser:
        """Subcommand name running func, with its input file when input_help is given."""
        p = sub.add_parser(name, help=summary)
        if input_help:
            p.add_argument("input", help=input_help)
        p.set_defaults(func=func)
        return p

    def report_options(p: argparse.ArgumentParser, tol: float = lounesto.DEFAULT_TOL) -> None:
        p.add_argument("--tol", type=_tolerance, default=tol)
        p.add_argument("--out", default=None)

    report_options(command("classify", cmd_classify, "classify each spinor in a file", spinor_file))

    p = command("generate", cmd_generate, "emit seeded spinors of one class")
    p.add_argument("--class", dest="lounesto_class", required=True,
                   choices=["1", "2", "3", "4", "5", "6"])
    p.add_argument("--count", type=_count, default=1, help=f"spinors to emit, at most {MAX_COUNT}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rep", choices=_REPS, default="weyl")
    report_options(p)

    p = command("verify", cmd_verify, "identity residual tables", "spinor or covariant file path, - for stdin")
    p.add_argument("--mode", choices=["fpk", "aggregate", "boomerang"], default="fpk")
    report_options(p)

    p = command("map4", cmd_map4, "apply a class-4 mapping to regular spinors", spinor_file)
    p.add_argument("--params", required=True, help="mapping parameter JSON path")
    report_options(p)

    command("winding", cmd_winding, "winding number of a closed plane path",
            "path JSON (list of [sigma, omega]) or - for stdin")
    report_options(command("reconstruct", cmd_reconstruct, "rebuild spinors from their aggregates", spinor_file),
                   tol=1e-9)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValueError, InternalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InternalError) else 2


if __name__ == "__main__":
    sys.exit(main())
