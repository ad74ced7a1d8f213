"""Record the reference outputs every benchmark run is checked against.

    python3 bench/record.py

Runs each workload's CLI invocations once and writes
``bench/reference/reference.json`` (exit code, verdict line, trajectory
fingerprints and forward steps, stdout and out= digests per run) plus one
compressed, rounded copy of every CSV output for the numeric comparison.
The reference describes the program at the commit it was recorded on;
re-recording it makes every later difference invisible, so do it only when
an output change is intended and reviewed.
"""

from __future__ import annotations

import json
import lzma
import re
import sys

from worker import invoke
import spec
import tracer
from check import REFERENCE_DIR, distinct, fingerprint, rounded_csv, sha256, verdict_line

# simulate and sweep without out= print a CSV, header first, on stdout
CSV_HEADER = re.compile(r"[A-Za-z_]+(,[A-Za-z_]+)+\n")


def main() -> int:
    functions = tracer.traced_functions()
    capture = tracer.Capture()
    wrappers = {tracer.SIMULATE: capture.wrap(functions[tracer.SIMULATE])}
    REFERENCE_DIR.mkdir(exist_ok=True)
    runs, workload_steps = {}, {}
    with tracer.Patch(functions, wrappers):
        for workload, (_, workload_runs) in spec.WORKLOADS.items():
            steps = 0
            for run_id, argv in workload_runs:
                run = invoke(argv, capture)
                if run.code is None:
                    raise SystemExit(f"{run_id} crashed:\n{run.stderr}")
                prints = []
                for trajectory in run.trajectories:
                    prints.append(fingerprint(trajectory))
                    if prints[-1] != trajectory.fingerprint():
                        raise SystemExit(f"{run_id}: fingerprint recomputation disagrees")
                # steps of the trajectories the run delivers, each counted once
                by_print = {p: t.forward_steps for p, t in zip(prints, run.trajectories)}
                steps += sum(by_print.values())
                csv = {}
                for stream, text in (("stdout", run.stdout if CSV_HEADER.match(run.stdout) else None),
                                     ("out", run.out_bytes.decode("ascii") if run.out_bytes else None)):
                    if text is not None:
                        csv[stream] = f"{run_id}.{stream}.csv.xz"
                        (REFERENCE_DIR / csv[stream]).write_bytes(
                            lzma.compress(rounded_csv(text).encode("ascii"),
                                          preset=9 | lzma.PRESET_EXTREME))
                runs[run_id] = {
                    "argv": list(argv), "exit": run.code, "verdict": verdict_line(run.stdout),
                    "fingerprints": distinct(prints),
                    "stdout_sha256": sha256(run.stdout.encode()),
                    "out_sha256": sha256(run.out_bytes) if run.out_bytes is not None else None,
                    "csv": csv,
                }
                print(f"{workload:13s} {run_id:22s} exit {run.code} "
                      f"{len(distinct(prints))} trajectories {sorted(csv)}", file=sys.stderr)
            workload_steps[workload] = steps
    with open(REFERENCE_DIR / "reference.json", "w", encoding="ascii") as fh:
        json.dump({"workload_steps": workload_steps, "runs": runs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
