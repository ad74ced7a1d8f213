"""Child process of ``run.py``: runs one workload's passes in-process.

Each CLI run calls ``delaygrowth.cli.main(argv)`` with stdout and stderr
captured; only that call is timed.  Every run is then checked against the
reference (``check.py``).  The result goes to ``--result`` as JSON.

Untraced mode: timed passes until ``--seconds`` have passed (at least
three).  There is no warm-up pass: the package keeps no caches, and a user
pays any first-call cost in every fresh CLI process anyway.  Traced mode:
untraced and span passes in turn until ``--seconds`` have passed (at least
two each), then one count pass; the per-layer metrics are medians over span
passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(BENCH))

import delaygrowth  # noqa: E402
import delaygrowth.cli  # noqa: E402

import spec  # noqa: E402
import tracer  # noqa: E402
from check import Reference, fingerprint  # noqa: E402

MIN_PLAIN_PASSES = 3
MIN_SPAN_PASSES = 2


@dataclass
class Run:
    code: int | None
    stdout: str
    stderr: str
    out_bytes: bytes | None
    seconds: float
    trajectories: list


def invoke(argv: tuple[str, ...], capture: tracer.Capture) -> Run:
    """One CLI run with stdout and stderr captured; only ``main`` is timed.

    ``capture`` must be patched in (by itself or inside a span or count
    wrapper) to collect the trajectories the run simulates.
    """
    out_path = next((ROOT / a[4:] for a in argv if a.startswith("out=")), None)
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.unlink(missing_ok=True)
    capture.trajectories.clear()
    stdout, stderr = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = delaygrowth.cli.main(list(argv))
        except Exception:  # a crash is a failed run, not a failed benchmark
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    out_bytes = out_path.read_bytes() if out_path is not None and out_path.exists() else None
    trajectories = list(capture.trajectories)
    capture.trajectories.clear()
    return Run(code, stdout.getvalue(), stderr.getvalue(), out_bytes, seconds, trajectories)


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.runs = spec.WORKLOADS[workload][1]
        self.rng = random.Random(seed)
        self.reference = Reference()
        self.functions = tracer.traced_functions()
        self.capture = tracer.Capture()
        self.attempted = 0
        self.failed = 0
        self.drift = 0
        self.failures: list[str] = []
        self.passes = 0

    def run_pass(self, wrappers: dict, spans: tracer.Spans | None = None) -> float:
        """Run every CLI invocation once, in an order drawn from the seed;
        returns the summed wall time of the ``main`` calls."""
        self.passes += 1
        total = 0.0
        with tracer.Patch(self.functions, wrappers):
            for run_id, argv in self.rng.sample(self.runs, len(self.runs)):
                if spans is not None:
                    spans.run_id = f"{self.passes}:{run_id}"
                run = invoke(argv, self.capture)
                total += run.seconds
                prints = [fingerprint(t) for t in run.trajectories]
                outcome = self.reference.check(run_id, run.code, run.stdout, run.out_bytes, prints)
                self.attempted += 1
                self.drift += outcome.drift
                if outcome.failed:
                    self.failed += 1
                    if len(self.failures) < 10:
                        self.failures.append(f"{run_id}: {outcome.reason}; stderr: "
                                             f"{run.stderr.strip()[-300:]!r}")
        return total

    def capture_only(self) -> dict:
        simulate = self.functions[tracer.SIMULATE]
        return {tracer.SIMULATE: self.capture.wrap(simulate)}


def gc_collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def untraced(runner: Runner, seconds: float) -> dict:
    times = []
    begin = time.perf_counter()
    while len(times) < MIN_PLAIN_PASSES or time.perf_counter() - begin < seconds:
        times.append(runner.run_pass(runner.capture_only()))
    return {"pass_s": times}


def traced(runner: Runner, seconds: float) -> dict:
    plain_times, gc_counts, span_times, summaries, all_spans = [], [], [], [], []
    span_names = [n for n in runner.functions if n not in tracer.COUNT_ONLY]
    begin = time.perf_counter()
    while len(span_times) < MIN_SPAN_PASSES or time.perf_counter() - begin < seconds:
        before = gc_collections()
        plain_times.append(runner.run_pass(runner.capture_only()))
        gc_counts.append(gc_collections() - before)
        spans = tracer.Spans(runner.capture)
        wrappers = {n: spans.wrap(n, runner.functions[n]) for n in span_names}
        span_times.append(runner.run_pass(wrappers, spans))
        summaries.append(spans.summary())
        all_spans.append(spans.spans)
    counts = tracer.Counts(runner.capture)
    count_names = tracer.COUNT_ONLY + ("functionals.invert", tracer.SIMULATE)
    count_time = runner.run_pass({n: counts.wrap(n, runner.functions[n]) for n in count_names})

    keys = set().union(*summaries)
    layers = {k: statistics.median(s.get(k, 0) for s in summaries) for k in keys}
    layers.update(counts.counts)
    plain = statistics.median(plain_times)
    layers["runtime.gc_collections"] = statistics.median(gc_counts)
    layers["trace.span_overhead_s"] = statistics.median(span_times) - plain
    layers["trace.count_overhead_s"] = count_time - plain
    steps = layers.get("simulator.steps", 0)
    layers["simulator.us_per_step"] = (1e6 * layers.get("simulator.simulate_euler.s", 0.0) / steps
                                       if steps else 0.0)
    inverts = layers["functionals.invert.calls"]
    layers["functionals.evals_per_invert"] = (
        layers["functionals.invert.evaluate_calls"] / inverts if inverts else 0.0)
    layers["cli.output_drift_runs"] = runner.drift

    spans_path = ROOT / spec.OUT_DIR / f"spans-{runner.workload}-{runner.seed}.json"
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump([[list(s) for s in spans] for spans in all_spans], fh)
    return {"pass_s": plain_times, "span_pass_s": span_times, "count_pass_s": count_time,
            "layers": layers, "spans_file": str(spans_path.relative_to(ROOT))}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    source = Path(delaygrowth.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"imported {source}, not the package under {ROOT / 'src'}")
    runner = Runner(args.workload, args.seed)
    result = (traced if args.trace else untraced)(runner, args.seconds)
    versions = {name: getattr(sys.modules.get(name), "__version__", "not loaded")
                for name in ("numpy", "scipy")}
    result.update(
        attempted=runner.attempted, failed=runner.failed, drift=runner.drift,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], **versions},
    )
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
