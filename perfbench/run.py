"""spinorspace benchmark: end-to-end CLI and API timings, or per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing is installed.  Inputs are drawn from
the seed and written under ``.perfbench_work/``.  With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced run of the same workload.  The last line of stdout is one JSON
object with keys correct, attempted, failed and metrics; the lines above it
are the same numbers for reading.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, here and in every child
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from reference import CALL_SAMPLE_S, JOB_ENTRIES, JOB_S, CallReference  # noqa: E402
from tracer import (  # noqa: E402
    CONSTRUCT_SPAN, LAYERS, PARSE_SPANS, SpanSummary, Tracer,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = 3
# Sizes: ROADMAP's reference file has 10k spinors.  These are cut so that a
# round takes about 4 s and a run gets a dozen samples of each metric.
REGULAR_SPINORS = 500
SINGULAR_PER_CLASS = 150
MAP4_SPINORS = 300
PATH_VERTICES = 20000
API_POOL = 500
# API latency percentiles come from one block of 1000 items per round, so
# p99 has 10 samples beyond it; an in-process reference sample is taken
# before each of its chunks and after the last
API_BLOCK_ITEMS = 1000
API_CHUNKS = 10
API_TRACED_ITEMS = 100
# the reference job runs before a round, after every JOB_EVERY commands and
# after the round's set-up
JOB_EVERY = 4
CHECK_FAILURES = (checks.CheckError, KeyError, TypeError, ValueError, AttributeError, IndexError)


# -- steps and their results --------------------------------------------------


@dataclass
class Step:
    """One CLI invocation: the metric its wall time adds to, its arguments,
    the entries (and path vertices) it handles and the check of its output."""

    metric: str
    args: list[str]
    check: Callable[[int, str], object]
    items: int = 0
    vertices: int = 0
    save_to: Path | None = None


@dataclass
class Workload:
    steps: list[Step]        # the workload's own commands, in order
    probes: list[Step]       # one-entry floor of every other command
    api: "ApiMix"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str, exc: Exception) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{what}: {exc}")


@dataclass
class Outcome:
    ok: bool
    code: int
    wall_s: float
    rss_mb: float
    stdout: str


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_step(step: Step, tally: Tally, spans_out: Path | None = None) -> Outcome:
    """Run one command (traced when spans_out is given) and check its output."""
    if spans_out is None:
        argv = [sys.executable, "-m", "spinorspace.cli", *step.args]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_out), *step.args]
    tally.attempted += 1
    with open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        try:
            raw = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    text = raw.decode("utf-8", errors="replace")
    ok = judge(step, code, text, tally)
    if ok and step.save_to is not None:
        step.save_to.write_bytes(raw)
    return Outcome(ok, code, wall, usage.ru_maxrss / 1024.0, text)


def judge(step: Step, code: int, text: str, tally: Tally) -> bool:
    """Apply the step's check; a wrong report is a failed operation."""
    try:
        step.check(code, text)
    except CHECK_FAILURES as exc:
        tally.fail(" ".join(step.args[:3]), exc)
        return False
    return True


# -- in-process API mix ---------------------------------------------------------


class ApiMix:
    """Single scalar calls on seeded spinors, no JSON and no subprocess.

    One item is one spinor taken through every scalar entry point: spinor
    construction, classify, both covariant sets, the FPK residuals, the
    aggregate, the quarter-sandwich residuals, one geometric product and the
    operator and algebraic round trips.  Each call is timed on its own, so
    the gate's checks of an item stay outside its ten latencies."""

    def __init__(self, ss: dict, weyl: np.ndarray) -> None:
        self.ss = ss
        clifford = ss["clifford"]
        self.pool = []
        for i, comps in enumerate(weyl):
            dirac = inputs.WEYL_TO_DIRAC @ comps
            rep, own = (clifford.WEYL, comps) if i % 2 == 0 else (clifford.DIRAC, dirac)
            sigma = 2.0 * float(inputs.chiral_overlap(comps)[0].real)
            self.pool.append((own, rep, dirac, sigma, float(np.vdot(comps, comps).real)))
        self.cursor = 0

    def run(self, tally: Tally, items: int) -> list[tuple]:
        """Run `items` items; returns the ten call latencies (ns) of each
        item that passes the gate."""
        ss = self.ss
        spinor_forms, lounesto, bilinears = ss["spinor_forms"], ss["lounesto"], ss["bilinears"]
        fierz, clifford = ss["fierz"], ss["clifford"]
        clock = time.perf_counter_ns
        latencies = []
        for _ in range(items):
            own, rep, dirac, sigma, norm2 = self.pool[self.cursor]
            self.cursor = (self.cursor + 1) % len(self.pool)
            tally.attempted += 1
            t0 = clock()
            psi = spinor_forms.ClassicalSpinor(own, rep)
            t1 = clock()
            report = lounesto.classify(psi)
            t2 = clock()
            b = bilinears.bilinear_covariants(psi)
            t3 = clock()
            e = bilinears.euclidean_bilinears(psi.components)
            t4 = clock()
            r = fierz.fpk_residuals(b)
            t5 = clock()
            z = fierz.aggregate(b)
            t6 = clock()
            g = fierz.generalized_fpk_residuals(z, b)
            t7 = clock()
            zz = clifford.geometric_product(z, z)
            t8 = clock()
            op = spinor_forms.classical_from_operator(spinor_forms.operator_from_classical(psi))
            t9 = clock()
            al = spinor_forms.classical_from_algebraic(spinor_forms.algebraic_from_classical(psi))
            t10 = clock()
            try:
                checks.expect(report.lounesto_class.value == "1", "classify: not class 1")
                checks.check_close(b.sigma, sigma, 1e-10 * norm2 / max(abs(sigma), 1e-300), "sigma")
                checks.check_close(e.sigma, norm2, 1e-12, "Euclidean sigma")
                checks.expect(r.max_abs() <= 1e-8 * b.component_norm() ** 2, "FPK residuals")
                zscale = z.norm() ** 2
                checks.expect(float(np.max(g)) <= 1e-8 * zscale, "quarter-sandwich residuals")
                checks.check_close(zz.coeffs, 4.0 * b.sigma * z.coeffs, 1e-9 * zscale / max(
                    float(np.max(np.abs(4.0 * b.sigma * z.coeffs))), 1e-300), "Z Z = 4 sigma Z")
                checks.check_close(op.components, dirac, 1e-12, "operator round trip")
                checks.check_close(al.components, dirac, 1e-12, "algebraic round trip")
            except CHECK_FAILURES as exc:
                tally.fail("api item", exc)
                continue
            latencies.append((t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4,
                              t6 - t5, t7 - t6, t8 - t7, t9 - t8, t10 - t9))
        return latencies


# -- set-up ------------------------------------------------------------------------


def import_program() -> dict:
    """Import spinorspace from this checkout afresh (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "spinorspace" or n.startswith("spinorspace.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module("spinorspace")
    if Path(package.__file__).resolve().parent != (SRC / "spinorspace").resolve():
        raise RuntimeError(f"spinorspace imported from {package.__file__}, not from {SRC}")
    return {layer: importlib.import_module(f"spinorspace.{layer}") for layer in LAYERS}


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def probe_steps(rng: np.random.Generator, work: Path) -> dict[str, Step]:
    """Every command on a one-entry input: the floor each command pays."""
    one = write_json(work / "one.json", inputs.spinor_doc(["p0"], ["weyl"], inputs.regular_weyl(rng, 1)))
    params = write_json(work / "probe_params.json", inputs.mapping_params(rng))
    path, winding = inputs.winding_path(rng, 64)
    path_file = write_json(work / "probe_path.json", path)
    seed = int(rng.integers(2 ** 31))
    f = str(one)
    steps = [
        Step("startup_s", ["classify", f], lambda c, t: checks.check_classify(c, t, ["p0"], "1"), 1),
        Step("generate_s", ["generate", "--class", "1", "--count", "1", "--seed", str(seed)],
             lambda c, t: checks.check_generate(c, t, "1", seed, 1), 1),
        Step("classify_s", ["classify", f], lambda c, t: checks.check_classify(c, t, ["p0"], "1"), 1),
        *[Step(f"verify_{mode}_s", ["verify", f, "--mode", mode],
               lambda c, t, m=mode: checks.check_verify(c, t, ["p0"], m, "spinors", [True]), 1)
          for mode in ("fpk", "boomerang", "aggregate")],
        Step("reconstruct_s", ["reconstruct", f], lambda c, t: checks.check_reconstruct(c, t, ["p0"]), 1),
        Step("map4_s", ["map4", f, "--params", str(params)], lambda c, t: checks.check_map4(c, t, ["p0"]), 1),
        Step("winding_s", ["winding", str(path_file)],
             lambda c, t: checks.check_winding(c, t, winding), vertices=64),
    ]
    return {s.metric: s for s in steps}


def setup_regular_cli(rng, work):
    """generate, classify, verify x3 and reconstruct over one file of class-1
    spinors, alternately in the weyl and dirac representations."""
    n = REGULAR_SPINORS
    ids = [f"r{i:05d}" for i in range(n)]
    doc = inputs.spinor_doc(ids, ["weyl", "dirac"] * (n // 2), inputs.regular_weyl(rng, n))
    f = str(write_json(work / "regular.json", doc))
    seed = int(rng.integers(2 ** 31))
    steps = [
        Step("generate_s", ["generate", "--class", "1", "--count", str(n), "--seed", str(seed)],
             lambda c, t: checks.check_generate(c, t, "1", seed, n), n),
        Step("classify_s", ["classify", f], lambda c, t: checks.check_classify(c, t, ids, "1"), n),
        *[Step(f"verify_{mode}_s", ["verify", f, "--mode", mode],
               lambda c, t, m=mode: checks.check_verify(c, t, ids, m, "spinors", [True] * n), n)
          for mode in ("fpk", "boomerang", "aggregate")],
        Step("reconstruct_s", ["reconstruct", f], lambda c, t: checks.check_reconstruct(c, t, ids), n),
    ]
    return steps


def setup_singular_map(rng, work):
    """generate classes 4, 5 and 6, classify what was generated, map4 of
    regular weyl spinors through a seeded mapping, winding of a long path."""
    n, m = SINGULAR_PER_CLASS, MAP4_SPINORS
    steps = []
    for cls in ("4", "5", "6"):
        seed = int(rng.integers(2 ** 31))
        out = work / f"generated{cls}.json"
        out.unlink(missing_ok=True)   # classify must read this run's output
        ids = [f"c{cls}-s{seed}-{i:03d}" for i in range(n)]
        steps.append(Step("generate_s", ["generate", "--class", cls, "--count", str(n), "--seed", str(seed)],
                          lambda c, t, k=cls, s=seed: checks.check_generate(c, t, k, s, n), n, save_to=out))
        steps.append(Step("classify_s", ["classify", str(out)],
                          lambda c, t, k=cls, i=ids: checks.check_classify(c, t, i, k), n))
    ids = [f"m{i:05d}" for i in range(m)]
    f = write_json(work / "regular_weyl.json", inputs.spinor_doc(ids, ["weyl"] * m, inputs.regular_weyl(rng, m)))
    params = write_json(work / "params.json", inputs.mapping_params(rng))
    steps.append(Step("map4_s", ["map4", str(f), "--params", str(params)],
                      lambda c, t: checks.check_map4(c, t, ids), m))
    path, winding = inputs.winding_path(rng, PATH_VERTICES)
    path_file = write_json(work / "path.json", path)
    steps.append(Step("winding_s", ["winding", str(path_file)],
                      lambda c, t: checks.check_winding(c, t, winding), vertices=PATH_VERTICES))
    return steps


WORKLOADS = {"regular-cli": setup_regular_cli, "singular-map": setup_singular_map}


def setup(name: str, seed: int, work: Path) -> Workload:
    ss = import_program()
    rng = np.random.default_rng(seed)
    probes = probe_steps(rng, work)
    api = ApiMix(ss, inputs.regular_weyl(rng, API_POOL))
    steps = WORKLOADS[name](rng, work)
    own = {s.metric for s in steps}
    floor = [probes["startup_s"]] + [p for m, p in probes.items() if m != "startup_s" and m not in own]
    return Workload(steps, floor, api)


# -- measured runs -------------------------------------------------------------------


def run_rounds(seconds: float, one_round: Callable[[], None]) -> int:
    """Repeat whole rounds while the next one is expected to end in time."""
    start = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t)
        spent = time.perf_counter() - start
        if len(durations) >= MIN_ROUNDS and spent + statistics.median(durations) > seconds:
            return len(durations)


def percentile(sorted_values, q: float):
    """The q-quantile of values sorted along the first axis."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


class HostSpeed:
    """Reference times taken beside a round's work (see reference.py): the
    job between CLI commands, the in-process sample between API chunks."""

    def __init__(self, work: Path) -> None:
        rng = np.random.default_rng(0)
        ids = [f"q{i:04d}" for i in range(JOB_ENTRIES)]
        doc = inputs.spinor_doc(ids, ["weyl"] * JOB_ENTRIES, inputs.regular_weyl(rng, JOB_ENTRIES))
        self.argv = [sys.executable, str(HERE / "reference.py"), str(write_json(work / "reference.json", doc))]
        self.calls = CallReference()
        self.job_s: list[float] = []
        self.call_s: list[float] = []

    def job(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.argv, stdout=subprocess.DEVNULL, check=True, env=child_env(), cwd=ROOT)
        self.job_s.append(time.perf_counter() - start)

    def call(self) -> None:
        self.call_s.append(self.calls.sample())

    def take(self) -> dict:
        taken = {"job_s": self.job_s, "call_s": self.call_s}
        self.job_s, self.call_s = [], []
        return taken


def corrected(rounds: list[dict]) -> dict[str, list[float]]:
    """Each round's times at the reference host speed: api_call_us_p50 is
    scaled by the in-process sample, everything else by the job.  The p99
    tail moves with the job and not with the sample, so it keeps the job's
    scale (perfbench/README.md gives the measurements)."""
    samples = defaultdict(list)
    for r in rounds:
        job_scale = JOB_S / statistics.median(r["reference"]["job_s"])
        call_scale = CALL_SAMPLE_S / statistics.median(r["reference"]["call_s"])
        for m, v in r["raw"].items():
            samples[m].append(v * (call_scale if m == "api_call_us_p50" else job_scale))
    return samples


def end_to_end(load: Workload, seconds: float, tally: Tally, work: Path,
               resetup: Callable[[], float]) -> tuple[dict, dict, list]:
    """Rounds of the workload's commands, the floor probes, one API block and
    one more set-up, with reference work between them; every time is put at
    the reference host speed and each metric is the median over rounds."""
    rounds: list[dict] = []
    api_calls = [0]
    rss = [0.0]
    speed = HostSpeed(work)

    def one_round() -> None:
        raw: dict[str, float] = defaultdict(float)
        broken: set[str] = set()
        speed.job()
        for i, step in enumerate(load.steps + load.probes, 1):
            out = run_step(step, tally)
            rss[0] = max(rss[0], out.rss_mb)
            if not out.ok:
                broken.add(step.metric)
            raw[step.metric] += out.wall_s
            if i % JOB_EVERY == 0:
                speed.job()
        latencies = []
        speed.call()
        for _ in range(API_CHUNKS):
            latencies += load.api.run(tally, API_BLOCK_ITEMS // API_CHUNKS)
            speed.call()
        if latencies:
            # percentiles per entry point, then their mean: pooling the ten
            # entry points would put p50 on the edge between two of them
            per_call = np.sort(np.array(latencies, dtype=float), axis=0)
            api_calls[0] += per_call.size
            for name, q in (("api_call_us_p50", 0.50), ("api_call_us_p99", 0.99)):
                raw[name] = float(np.mean(percentile(per_call, q))) / 1e3
        raw["setup_s"] = resetup()
        speed.job()
        rounds.append({"raw": {m: v for m, v in raw.items() if m not in broken}, "reference": speed.take()})

    run_rounds(seconds, one_round)
    samples = corrected(rounds)
    metrics = {m: statistics.median(v) for m, v in samples.items()}
    own = {step.metric for step in load.steps}
    if own <= metrics.keys():
        items = sum(step.items + step.vertices for step in load.steps)
        metrics["items_per_s"] = items / sum(metrics[m] for m in own)
    metrics["peak_rss_mb"] = rss[0]
    notes = {"rounds": len(rounds), "api_call_samples": api_calls[0], "api_blocks": len(samples["api_call_us_p50"]),
             "host_speed": statistics.median(JOB_S / statistics.median(r["reference"]["job_s"]) for r in rounds)}
    return metrics, notes, rounds


def traced(load: Workload, seconds: float, tally: Tally, work: Path) -> tuple[dict, dict]:
    """Alternate an untraced and a traced pass of the workload's commands,
    then a traced block of the API mix; the spans give the per-layer numbers."""
    summary, api_summary = SpanSummary(), SpanSummary()
    counts = defaultdict(int)   # items, accepted, vertices, output_bytes, api_items
    ratios, traced_wall = [], [0.0]
    spans_out = work / "spans.json"

    def one_round() -> None:
        plain = sum(run_step(step, tally).wall_s for step in load.steps)
        wall = 0.0
        for step in load.steps:
            spans_out.unlink(missing_ok=True)
            out = run_step(step, tally, spans_out)
            wall += out.wall_s
            if spans_out.exists():
                summary.add(json.loads(spans_out.read_text(encoding="utf-8")))
            counts["items"] += step.items
            counts["vertices"] += step.vertices
            counts["output_bytes"] += len(out.stdout.encode("utf-8"))
            if step.args[0] == "generate":
                counts["accepted"] += step.items
        ratios.append(wall / plain)
        traced_wall[0] += wall
        tracer = Tracer()
        tracer.install()
        try:
            load.api.run(tally, API_TRACED_ITEMS)
        finally:
            tracer.uninstall()
        api_summary.add(tracer.spans)
        counts["api_items"] += API_TRACED_ITEMS

    rounds = run_rounds(seconds, one_round)
    metrics = layer_metrics(summary, api_summary, counts, traced_wall[0], statistics.median(ratios))
    # the CLI stages, all read from the spans
    stages = ("cli.import_s", "cli.parse_us_per_item", "cli.compute_us_per_item", "cli.serialize_us_per_item")
    notes = {"rounds": rounds, "spans": sum(summary.calls.values()), "items": counts["items"],
             "stage_split": {name: metrics[name] for name in stages}}
    return metrics, notes


def us_per(s: SpanSummary, names, denominator) -> float:
    total = sum(s.total_ns[n] for n in names)
    return total / 1e3 / denominator if denominator else 0.0


def layer_metrics(s: SpanSummary, api: SpanSummary, counts: dict, traced_wall_s: float, overhead: float) -> dict:
    """Per-layer numbers of the CLI spans; the Euclidean covariants and the
    spinor_forms round trips run only in the API mix, so they are read from
    its spans, per API item."""
    items = max(counts["items"], 1)
    gp_calls = s.calls["clifford.geometric_product"]
    mul_calls = s.calls["clifford.left_mul_matrix"] + s.calls["clifford.right_mul_matrix"]
    accepted = counts["accepted"]
    attempts = s.calls_under[("lounesto.classify", "lounesto.generate")]
    cli_self = sum(ns for name, ns in s.self_ns.items()
                   if name.startswith("cli.") and name not in PARSE_SPANS and name != "cli.import")
    m = {
        "cli.import_s": statistics.median(s.import_ns) / 1e9 if s.import_ns else 0.0,
        "cli.parse_us_per_item": us_per(s, PARSE_SPANS, items),
        "cli.compute_us_per_item": s.compute_ns / 1e3 / items,
        "cli.serialize_us_per_item": us_per(s, ["cli._dump"], items),
        "cli.self_us_per_item": cli_self / 1e3 / items,
        "cli.output_bytes_per_item": counts["output_bytes"] / items,
        "spinor_forms.construct_us_per_item": us_per(s, [CONSTRUCT_SPAN], items),
        "spinor_forms.roundtrip_us_per_item": us_per(
            api, ["spinor_forms.operator_from_classical", "spinor_forms.classical_from_operator",
                  "spinor_forms.algebraic_from_classical", "spinor_forms.classical_from_algebraic"],
            counts["api_items"]),
        "bilinears.covariants_us_per_item": us_per(s, ["bilinears.bilinear_covariants"], items),
        "bilinears.euclidean_us_per_item": us_per(api, ["bilinears.euclidean_bilinears"], counts["api_items"]),
        "clifford.geometric_product_us_per_call": us_per(s, ["clifford.geometric_product"], gp_calls),
        "clifford.geometric_product_calls_per_item": gp_calls / items,
        "clifford.mul_matrix_us_per_call": us_per(
            s, ["clifford.left_mul_matrix", "clifford.right_mul_matrix"], mul_calls),
        "clifford.rep_matrix_us_per_call": us_per(s, ["clifford.rep_matrix"], s.calls["clifford.rep_matrix"]),
        "fierz.fpk_residuals_us_per_item": us_per(s, ["fierz.fpk_residuals"], items),
        "fierz.aggregate_us_per_item": us_per(s, ["fierz.aggregate"], items),
        "fierz.generalized_us_per_item": us_per(s, ["fierz.generalized_fpk_residuals"], items),
        "fierz.reconstruct_us_per_item": us_per(s, ["fierz.reconstruct"], items),
        "lounesto.classify_self_us_per_item": s.self_ns["lounesto.classify"] / 1e3 / items,
        "lounesto.generate_us_per_accepted": us_per(s, ["lounesto.generate"], accepted),
        "lounesto.generate_attempts_per_accepted": attempts / accepted if accepted else 0.0,
        "classmap.map_to_class4_us_per_item": us_per(s, ["classmap.map_to_class4"], items),
        "topology.winding_us_per_vertex": us_per(s, ["topology.winding_report"], counts["vertices"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = s.layer_self_ns(layer) / 1e9 / traced_wall_s if traced_wall_s else 0.0
    m["trace.overhead_ratio"] = overhead
    return m


# -- reporting --------------------------------------------------------------------------


def machine_meta(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinorspace" / "__init__.py").is_file():
        print(f"error: no spinorspace sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)

    def timed_setup() -> float:
        start = time.perf_counter()
        setup(args.workload, args.seed, work)
        return time.perf_counter() - start

    load = setup(args.workload, args.seed, work)
    run_step(load.probes[0], Tally())   # warm the bytecode and file caches

    tally = Tally()
    samples = {}
    if args.trace:
        metrics, notes = traced(load, args.seconds, tally, work)
    else:
        metrics, notes, samples = end_to_end(load, args.seconds, tally, work, timed_setup)
    notes["error_rate"] = tally.failed / max(tally.attempted, 1)
    notes["failures"] = tally.failures

    meta = machine_meta(args)
    print("# " + json.dumps(meta, sort_keys=True))
    for name in wanted:
        print(f"{name:44s} {metrics.get(name, 0.0):14.6g} {units[name]}")
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": units[name]} for name in wanted},
    }
    write_json(work / f"result-trace{args.trace}.json", {"meta": meta, "notes": notes, "samples": samples, **result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
