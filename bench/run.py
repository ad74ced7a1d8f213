"""The delaygrowth benchmark: three CLI workloads, checked against a reference.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, untraced and traced

Run from anywhere; paths are taken relative to the checkout that holds this
file.  Each measurement runs one workload in a single child process
(``worker.py``) with one thread: BLAS and OpenMP thread counts are pinned to
1 and the garbage collector stays on, because users pay for it.  ``--seed``
shuffles the order of the runs within each pass; the inputs are fixed so
that the recorded reference (``reference/``) holds for every seed.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` reports the per-layer metrics from span passes and a separate
count pass (see ``tracer.py``), and the tracing overhead.  The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics; a fuller record, with machine facts, goes to ``--results``.
Compare two sets of records with ``compare.py``.  ``spec.py`` lists the
workloads and metrics and maps each layer metric to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
from check import Reference  # noqa: E402

SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 1

SETUP_CODE = """\
from delaygrowth.cli import load_config
for argv in {argvs!r}:
    load_config(list(argv))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> None:
    """Run a child in the checkout root; kill it and fail at the deadline."""
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env())
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"child {args[:2]} ran past the time limit") from None
    if code != 0:
        raise SystemExit(f"child {args[:2]} exited with {code}")


def setup_seconds(workload: str, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and load the
    workload's configs; the first one, which may compile bytecode, is dropped."""
    argvs = [argv for _, argv in spec.WORKLOADS[workload][1]]
    code = SETUP_CODE.format(argvs=argvs)
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        run_child(["-c", code], deadline)
        times.append(time.perf_counter() - start)
    return times[1:]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples beyond it.

    Ten beyond, as for a latency tail, would need 100 passes to reach p90,
    and a run has 4 to 20; one beyond keeps a single stray pass on a shared
    machine from setting the figure.
    """
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / len(ordered), TAIL_BEYOND


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model}


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    out_dir = ROOT / spec.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    setups = [] if trace else setup_seconds(workload, deadline)
    result_path = out_dir / f"worker-{workload}-{seed}-{trace}.json"
    result_path.unlink(missing_ok=True)
    run_child([str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--result", str(result_path)], deadline)
    with open(result_path, encoding="ascii") as fh:
        worker = json.load(fh)

    errors = []
    passes = worker["pass_s"]
    units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}
    if trace:
        layers = worker["layers"]
        values = {name: layers.get(name, 0.0) for name, *_ in spec.PER_LAYER}
        for name, _, _, _, mapped, covers in spec.PER_LAYER:
            if mapped == workload and covers and not layers.get(f"{covers}.calls"):
                errors.append(f"layer check: {covers} was never called on {workload}, "
                              f"which {name} is meant to measure")
        info = {key: worker[key] for key in ("span_pass_s", "count_pass_s", "spans_file")}
    else:
        wall = statistics.median(passes)
        tail_s, tail_pct, beyond = tail(passes)
        steps = Reference().workload_steps[workload]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "wall_s_tail": tail_s,
            "steps_per_s": steps / wall,
            "peak_rss_mb": worker["peak_rss_mb"],
            "ok_ratio": 1.0 - worker["failed"] / worker["attempted"],
        }
        info = {"setup_samples_s": setups, "tail_percentile": tail_pct,
                "tail_samples_beyond": beyond, "steps_per_pass": steps}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": worker["failed"] == 0 and not errors,
        "attempted": worker["attempted"], "failed": worker["failed"],
        "output_drift_runs": worker["drift"], "failures": worker["failures"], "errors": errors,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        "pass_s": passes, "info": info,
        "machine": {**machine(), **worker["versions"]},
        "elapsed_s": time.monotonic() - started,
    }


def report(record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {len(record['pass_s'])}  runs {record['attempted']}  failed {record['failed']}  "
          f"output drift {record['output_drift_runs']}")
    print(f"machine: {m['nproc']} cpus ({m['usable_cpus']} usable), {m['cpu_model']}, "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    if record["trace"]:
        layers = record["metrics"]
        mapping = {name: (moves, mapped) for name, _, _, moves, mapped, _ in spec.PER_LAYER}
        for name, metric in layers.items():
            if not name.startswith("trace."):
                moves, mapped = mapping[name]
                print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']:6s} "
                      f"-> {','.join(moves) or '-'} on {mapped}")
        print("tracing overhead (traced minus untraced pass time):")
        for name in ("trace.span_overhead_s", "trace.count_overhead_s"):
            print(f"  {name:42s} {layers[name]['value']:>14.6g} s")
    else:
        info = record["info"]
        notes = {
            "setup_s": f"median of {len(info['setup_samples_s'])} fresh interpreters",
            "wall_s": f"median of {len(record['pass_s'])} passes",
            "wall_s_tail": f"p{info['tail_percentile']:.4g} of {len(record['pass_s'])} passes, "
                           f"{info['tail_samples_beyond']} beyond",
            "steps_per_s": f"{info['steps_per_pass']} steps per pass",
            "peak_rss_mb": "child process",
            "ok_ratio": f"{record['attempted'] - record['failed']} of {record['attempted']} runs "
                        f"agree with the reference",
        }
        for name, metric in record["metrics"].items():
            print(f"  {name:14s} {metric['value']:>14.6g} {metric['unit']:6s} {notes[name]}")
    for line in record["failures"] + record["errors"]:
        print(f"FAIL {line}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--results", default=f"{spec.OUT_DIR}/results",
                        help="directory for the full run records (default: %(default)s)")
    args = parser.parse_args()

    missing = [p for p in ("src/delaygrowth/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a delaygrowth checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = ROOT / args.results
    results.mkdir(parents=True, exist_ok=True)
    all_correct = True
    for workload in workloads:
        for trace in traces:
            record = measure(workload, args.seed, args.seconds, trace)
            with open(results / f"{workload}-seed{args.seed}-trace{trace}.json", "w",
                      encoding="ascii") as fh:
                json.dump(record, fh, indent=1)
            report(record)
            all_correct &= record["correct"]
            print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
            sys.stdout.flush()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
