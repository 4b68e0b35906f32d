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
an imaginary part).  Input paths accept "-" for stdin.  An --out file that
cannot be written is a schema error, after any error of the input.
The process entry, run(), serves both `python -m spinorspace.cli` and the
`spinorspace` script: it calls main() and freezes the heap (gc.freeze)
before the exit, so shutdown skips collecting numpy's object graph.
main(argv) itself leaves the collector as it found it.
Complex numbers are [re, im] pairs.  Every number read from a spinor,
covariant, mapping parameter or winding path file must be an int or float
under the number rule, clifford._numbers, and finite in float64; anything
else, such as true, "1", NaN or an integer beyond float range, is a schema
error naming the field, as is a path vertex that is not a [sigma, omega]
pair; the error line echoes at most ECHO_CHARS characters of the value.
One reader, _read_items, reads a spinor, covariant or path file after its
envelope: each field of the whole file as one array, and only when that
fails a walk of the entries in file order, so that the error names the
first bad one.
Mapping parameters whose matrix, or its constraint residuals, overflow
float64 are a schema error naming the parameter file, and generate --count
above MAX_COUNT or a negative --seed is a usage error.  A path that is
open, touches the origin, has fewer than 3 vertices or is too coarse exits 1.

classify, verify, reconstruct and map4 run one pipeline.  A file is read
as one array of components or covariants; one block loop computes BLOCK
entries at a time into one array per field, the entries of a block grouped
by representation (a covariant file is one group); and one report writer
adds the envelope and all_pass, and jsonio.dumps writes the report's rows
from those arrays in file order, byte for byte as json.dumps(report,
indent=2, sort_keys=True, allow_nan=False) would.  classify, verify and
reconstruct compute each entry on a power-of-two ray that they take once:
a spinor's by bilinears._covariants_on_ray, which computes its covariants
there too, and a covariant set's by Record._on_ray.  They print absolute
values at the entry's own scale by an exact ldexp.  An entry that cannot be
computed (a zero spinor, covariants that overflow float64 at its own scale,
for verify also their squared norm or residuals, a map4 input that is not
a regular Weyl spinor, lies in the kernel or has an image outside float64's
normal range) gets an {id, error} row, which fails verify and reconstruct.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter

import numpy as np

from . import classmap, fierz, lounesto
from .bilinears import _COVARIANT_FIELDS, BilinearSet, _covariants_on_ray
from .clifford import _REP_BY_TAG, InternalError, RowError, Signature, _fitting, _ldexp_quiet, rep_by_tag
from .jsonio import Rows, dumps, floats
from .spinor_forms import ClassicalSpinor
from .topology import winding_report

SCHEMA_VERSION = 1

# entries computed together: amortises the per-call cost over a block while
# bounding the (BLOCK, 16, 16) temporaries of verify --mode aggregate
BLOCK = 64

_REPS = tuple(_REP_BY_TAG)
_PAIR = "a [re, im] pair of finite numbers"
# generate --count beyond this is a usage error: the report is built in memory
MAX_COUNT = 100_000
# longest echo of an offending value in an error line, before "..."
ECHO_CHARS = 80


class SchemaError(Exception):
    pass


# -- JSON plumbing ------------------------------------------------------------


def _load_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
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
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {out}: {exc}") from exc


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


def _int(text: str) -> int:
    """text read as an int, with argparse's message for one that is not."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _count(text: str) -> int:
    """argparse type for generate --count: an int from 1 to MAX_COUNT."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    if value > MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_COUNT}, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type for generate --seed: a non-negative int, as numpy's generators take."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _entries_of(doc, where: str) -> list:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object at top level")
    if doc.get("version") != SCHEMA_VERSION:
        raise SchemaError(f"{where}: missing or unsupported version (expected {SCHEMA_VERSION})")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise SchemaError(f"{where}: 'entries' must be a list")
    return entries


_KIND_NAMES = {"spinors": "a spinor", "bilinears": "a covariant"}


def _entry_kind(entry) -> str:
    """'bilinears' for an object with any covariant field, else 'spinors'."""
    if isinstance(entry, dict) and any(name in entry for name, _ in _COVARIANT_FIELDS):
        return "bilinears"
    return "spinors"


def _read_items(items: list, fields, check, at: str, unreadable: str, admit=None, kind=None) -> list[np.ndarray]:
    """The one reader of an input file's numbers: each (key, shape) field
    of all items, key None for the item itself, read for the whole file as
    one float array by one jsonio.floats call.  Only when admit rejects an
    item or a read fails are the items walked in file order with
    check(item, f"{at}[{pos}]"), so that the error names the first bad one.
    With a kind, as verify reads, an object entry of the other kind is
    rejected too, after check's object test and before its fields."""
    if kind is not None:
        admit_fields, check_fields = admit, check

        def admit(item):
            return _entry_kind(item) == kind and admit_fields(item)

        def check(item, here):
            if isinstance(item, dict) and _entry_kind(item) != kind:
                raise SchemaError(f"{here} is {_KIND_NAMES[_entry_kind(item)]} entry, "
                                  f"but entries[0] makes this {_KIND_NAMES[kind]} file")
            check_fields(item, here)
    columns = []
    if admit is None or all(map(admit, items)):
        for key, shape in fields:
            column = floats((items if key is None else [item.get(key) for item in items]) or np.empty((0,) + shape),
                            (len(items),) + shape)
            if column is None:
                break
            columns.append(column)
    if len(columns) < len(fields):
        for pos, item in enumerate(items):
            check(item, f"{at}[{pos}]")
        raise SchemaError(unreadable)
    return columns


def _ids(entries: list) -> np.ndarray:
    """Each entry's id as text: a string as given, any other JSON value as
    its json.dumps text, entry-<position> for an entry without one."""
    ids = (entry.get("id", f"entry-{pos}") for pos, entry in enumerate(entries))
    return np.array([i if isinstance(i, str) else json.dumps(i) for i in ids], dtype=object)


def _check_spinor_entry(entry, here: str) -> None:
    if not isinstance(entry, dict):
        raise SchemaError(f"{here}: expected an object")
    if entry.get("rep", "weyl") not in _REPS:
        raise SchemaError(f"{here}: rep must be {' or '.join(map(repr, _REPS))}")
    comps = entry.get("components")
    if not isinstance(comps, list) or len(comps) != 4:
        raise SchemaError(f"{here}: components must be 4 [re, im] pairs")
    for k, pair in enumerate(comps):
        _field(pair, (2,), f"{here}.components[{k}]", _PAIR)


def _parse_spinor_entries(doc, where: str, kind=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ids, rep tags and (n, 4) complex components of a spinor file's
    entries; kind as _read_items takes it."""
    entries = _entries_of(doc, where)
    values, = _read_items(entries, (("components", (4, 2)),), _check_spinor_entry, f"{where}: entries",
                          f"{where}: unreadable spinor entries",
                          lambda entry: isinstance(entry, dict) and entry.get("rep", "weyl") in _REPS, kind)
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


def _parse_bilinear_entries(doc, where: str, kind=None) -> tuple[np.ndarray, np.ndarray]:
    """Ids and the (n, 16) covariant stacks of a covariant file's entries;
    kind as _read_items takes it."""
    entries = _entries_of(doc, where)
    columns = _read_items(entries, _COVARIANT_FIELDS, _check_covariant_entry, f"{where}: entries",
                          f"{where}: unreadable covariant entries", lambda entry: isinstance(entry, dict), kind)
    return _ids(entries), np.column_stack(columns)


def load_spinor_file(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ids, rep tags and (n, 4) complex components of the entries of a
    spinor file: {id, rep, components: 4 [re, im] pairs}."""
    return _parse_spinor_entries(_load_json(path), path)


def _detect_input_kind(path: str) -> tuple[str, tuple]:
    """The file's kind, set by its first entry, and its entries read as
    that kind: an entry of the other kind is a schema error, and the reader
    names the first bad entry in file order."""
    doc = _load_json(path)
    entries = _entries_of(doc, path)
    kind = _entry_kind(entries[0]) if entries else "spinors"
    parse = _parse_bilinear_entries if kind == "bilinears" else _parse_spinor_entries
    return kind, parse(doc, path, kind)


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


def _rows(ids: np.ndarray, tags: np.ndarray, compute) -> Rows:
    """The report rows of a file's entries, computed BLOCK entries at a time.

    The entries of a block with the same tag are computed together:
    compute(pos) returns the columns of the entries at positions pos.
    Entries it rejects with RowError get {id, error} rows, and the rest are
    computed again without them.
    """
    done, errors = [], []
    for start in range(0, len(ids), BLOCK):
        block = tags[start:start + BLOCK]
        for tag in dict.fromkeys(block.tolist()):
            pos = start + np.flatnonzero(block == tag)
            live = np.ones(len(pos), dtype=bool)
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
    if errors:
        pos = np.concatenate([p for p, _ in errors])
        messages = np.repeat(np.array([m for _, m in errors], dtype=object), [len(p) for p, _ in errors])
        groups.append((pos, {"error": messages, "id": ids[pos]}))
    return Rows(groups)


def _spinor_rows(ids: np.ndarray, reps: np.ndarray, comps: np.ndarray, compute) -> Rows:
    """The rows of a spinor file's entries, grouped by representation:
    compute(psi) takes a batch of nonzero spinors in one representation and
    returns their columns.  A zero spinor gets an error row."""
    def block(pos):
        zero = ~comps[pos].any(axis=-1)
        if zero.any():
            raise RowError("zero spinor", zero)
        return compute(ClassicalSpinor(comps[pos], rep_by_tag(reps[pos[0]])))
    return _rows(ids, reps, block)


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


def _verify_rows(ray: BilinearSet, e: np.ndarray, mode: str, tol: float) -> dict:
    """The verify columns of the covariants ray 2^e, computed on ray, a 1-d batch
    of order 1 (on its own ray or its spinor's), with e of shape (n, 1).  Sets
    whose squared norm or residuals overflow float64 at that scale raise RowError."""
    if mode == "fpk":
        res, within = fierz._fpk_check(ray, tol)
        values = _ldexp_quiet(res, 2 * e)
        columns = {**{f"r{k + 1}": values[:, k] for k in range(4)},
                   **{f"pass_per_identity.r{k + 1}": within[:, k] for k in range(4)}, "pass": within.all(axis=-1)}
    elif mode == "boomerang":
        values = fierz.boomerang_residual(fierz.aggregate(ray), ray.sigma)[:, None]
        columns = {"residual": values[:, 0], "pass": values[:, 0] <= tol}
    else:
        z = fierz.aggregate(ray)
        # |Z|^2 is of order 1 on the ray: the floor holds only for the zero set
        zscale = np.maximum(z.norm() ** 2, 1e-300)
        res5 = fierz.generalized_fpk_residuals(z, ray)
        values = res5 / zscale[:, None]
        columns = {"residuals": values, "pass": res5.max(axis=-1) <= tol * zscale}
    norm2 = _ldexp_quiet(ray.component_norm() ** 2, 2 * e[:, 0])
    _fitting(np.column_stack([norm2, values]), "residuals do not fit in float64")
    return columns


def cmd_verify(args) -> int:
    kind, entries = _detect_input_kind(args.input)
    if kind == "spinors":
        def compute(psi):
            _, e, v, _ = _covariants_on_ray(psi.components, Signature.MINKOWSKI, psi.rep)
            return _verify_rows(BilinearSet._of(v, signature=Signature.MINKOWSKI), 2 * e, args.mode, args.tol)
        rows = _spinor_rows(*entries, compute)
    else:
        ids, stack = entries
        # a covariant file is one group
        rows = _rows(ids, np.zeros(len(ids)), lambda pos: _verify_rows(
            *BilinearSet.from_stack(stack[pos])._on_ray(), args.mode, args.tol))
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
        r0, r123 = classmap.constraint_residuals(m.matrix)
        abs_det = classmap.no_inverse_witness(m.matrix)
        _fitting(np.array([r0, r123, abs_det]), "constraint residuals of the mapping matrix do not fit in float64")
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
    path, = _read_items(doc, ((None, (2,)),), lambda vertex, here: _field(
        vertex, (2,), here, "a [sigma, omega] pair of finite numbers"), args.input, f"{args.input}: unreadable path")
    try:
        report = winding_report(path)
    except ValueError as exc:
        print(f"winding: {exc}", file=sys.stderr)
        return 1
    print(report.winding)
    return 0


def _reconstruct_rows(psi: ClassicalSpinor, tol: float) -> dict:
    """Rebuild each spinor of the batch from its own aggregate, on its ray."""
    comps, e, v, _ = _covariants_on_ray(psi.components, Signature.MINKOWSKI, psi.rep)
    ray = ClassicalSpinor._of(comps, rep=psi.rep)
    z = fierz.aggregate(BilinearSet._of(v, signature=Signature.MINKOWSKI))
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
                   choices=[c.value for c in lounesto._DRAWERS])
    p.add_argument("--count", type=_count, default=1, help=f"spinors to emit, at most {MAX_COUNT}")
    p.add_argument("--seed", type=_seed, default=0)
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


def run() -> None:
    """The process entry: main(), then exit with its code.  Before the exit
    the heap is frozen, so that interpreter shutdown does not collect the
    numpy and package object graph, which the operating system reclaims
    anyway; atexit handlers and the flush of stdout and stderr still run."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
