"""In-memory span tracing of the spinorspace layers, from outside the program.

A traced run replaces every public function of the layer modules, at every
name the package binds it to (``spinorspace.cli.bilinear_covariants`` as
well as ``spinorspace.bilinears.bilinear_covariants``), by a wrapper that
records one span per call: name, start, end and parent span.  Spans stay in a list until the run writes them out.

Nothing under ``src/`` is modified; ``uninstall`` puts the original
functions back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "spinor_forms", "bilinears", "clifford", "fierz", "lounesto", "classmap", "topology")

# private CLI helpers that bound the parse and serialise stages; every other
# traced function is public
CLI_STAGES = ("_load_json", "_parse_spinor_entries", "_parse_bilinear_entries", "_dump")
PARSE_SPANS = ("cli._load_json", "cli._parse_spinor_entries", "cli._parse_bilinear_entries")
IMPORT_SPAN = "cli.import"

# spinor construction runs in ClassicalSpinor.__post_init__, so that method
# is traced under this name
CONSTRUCT_SPAN = "spinor_forms.ClassicalSpinor"


class Tracer:
    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished top-level span timed by the caller."""
        self.spans.append((name, start_ns, end_ns, -1))

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap the layer functions of the already imported spinorspace package."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"spinorspace.{layer}"]
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and not (layer == "cli" and attr in CLI_STAGES):
                    continue
                originals[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "spinorspace" or name.startswith("spinorspace.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patch(module, attr, originals[obj])
        cls = sys.modules["spinorspace.spinor_forms"].ClassicalSpinor
        self._patch(cls, "__post_init__", self.wrap(CONSTRUCT_SPAN, cls.__post_init__))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class SpanSummary:
    """Per-name call counts, inclusive and self times over a set of spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        # calls of a name grouped by the name of the direct parent span
        self.calls_under: dict[tuple[str, str], int] = defaultdict(int)
        # durations of non-CLI spans whose parent is a CLI span: the compute stage
        self.compute_ns = 0
        self.import_ns: list[int] = []

    def add(self, spans: list) -> None:
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - child_ns[idx]
            if name == IMPORT_SPAN:
                self.import_ns.append(duration)
            if parent >= 0:
                parent_name = spans[parent][0]
                self.calls_under[(name, parent_name)] += 1
                if layer_of(parent_name) == "cli" and layer_of(name) != "cli":
                    self.compute_ns += duration

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for name, ns in self.self_ns.items() if layer_of(name) == layer)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
