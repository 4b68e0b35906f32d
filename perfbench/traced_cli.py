"""Run one spinorspace CLI command with its layers traced.

    python3 perfbench/traced_cli.py SPANS_OUT CLI_ARGS...

Behaves like ``python3 -m spinorspace.cli CLI_ARGS...`` (same stdout and
exit code) and, on exit, writes the recorded spans to SPANS_OUT as a JSON
list of ``[name, start_ns, end_ns, parent_index]``.  The import of
``spinorspace.cli`` is recorded as the span ``cli.import``.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import IMPORT_SPAN, Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter_ns()
    from spinorspace import cli

    tracer.record(IMPORT_SPAN, start, time.perf_counter_ns())
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
