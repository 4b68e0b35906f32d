"""Show that the benchmark's correctness gate fires.

    python3 perfbench/selfcheck.py

Runs every workload's commands once on small seeded inputs, requires each
genuine report to pass, then feeds deliberately corrupted copies of the
reports (a NaN token, a dropped or reordered entry, a wrong class, pass
flag, exit code or winding number) and of one API result through the same
gate.  Each corrupted report must be counted as one failed operation.
Exits 1 if any corruption slips through or a genuine report fails.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import types

import run

SEED = 7


def _redump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def corruptions(step: run.Step, code: int, text: str):
    """(label, exit code, stdout) variants of a genuine report, each wrong."""
    command = step.args[0]
    yield "exit code", code ^ 1, text
    if command == "winding":
        yield "winding", code, str(int(text) + 1) + "\n"
        return
    yield "NaN token", code, re.sub(r"-?\d+\.\d+(?:[eE][-+]?\d+)?", "NaN", text, count=1)
    doc = json.loads(text)
    key = "entries" if command == "generate" else "results"
    rows = doc[key]
    if len(rows) > 1:
        yield "reordered", code, _redump({**doc, key: [rows[1], rows[0], *rows[2:]]})
    yield "dropped", code, _redump({**doc, key: rows[:-1]})
    first = dict(rows[0])
    if command == "generate":
        first["id"] = first["id"] + "x"
    elif command == "classify":
        first["class"] = "anomalous"
    elif command == "verify":
        first["pass"] = not first["pass"]
    elif command == "reconstruct":
        first["pass"] = False
    elif command == "map4":
        first["degenerate"] = ["K"]
    yield f"wrong {command} row", code, _redump({**doc, key: [first, *rows[1:]]})


def main() -> int:
    run.REGULAR_SPINORS = 6
    run.SINGULAR_PER_CLASS = 4
    run.MAP4_SPINORS = 4
    run.PATH_VERTICES = 400
    work = run.WORK / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    problems, corrupted, caught = [], 0, 0
    for name in run.WORKLOADS:
        load = run.setup(name, SEED, work)
        for step in load.steps + load.probes:
            genuine = run.Tally()
            out = run.run_step(step, genuine)
            if not out.ok:
                problems.append(f"{name}: genuine report rejected: {genuine.failures}")
                continue
            for label, code, text in corruptions(step, out.code, out.stdout):
                tally = run.Tally(attempted=1)
                corrupted += 1
                if run.judge(step, code, text, tally) or tally.failed != 1:
                    problems.append(f"{name} {' '.join(step.args[:2])}: {label} passed the gate")
                else:
                    caught += 1
    # wrong API results: classify reports class 2 for class-1 spinors
    real = load.api.ss["lounesto"]
    wrong_class = types.SimpleNamespace(classify=lambda psi, tol=real.DEFAULT_TOL: dataclasses.replace(
        real.classify(psi, tol), lounesto_class=real.LounestoClass.C2))
    load.api.ss = {**load.api.ss, "lounesto": wrong_class}
    tally = run.Tally()
    load.api.run(tally, 3)
    corrupted += 3
    caught += tally.failed
    if tally.failed != 3:
        problems.append(f"api mix: {3 - tally.failed} wrong API results passed the gate")
    for line in problems:
        print(line)
    print(f"{corrupted} corrupted reports, {caught} counted as failed operations")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
