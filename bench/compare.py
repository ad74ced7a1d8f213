"""Compare end-to-end metrics of a parent and a change.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are run records written by ``run.py --results DIR``
(directories of them, or single files), made with identical benchmark code
and settings.  Runs of a workload are paired in seed order (by seed when
both sides used the same seeds).  For each workload and
end-to-end metric this prints both medians and quartiles, the pairs the
change won, and a verdict:

* improved:   the change won at least 9 of every 10 pairs (ties count for
              neither; at least 10 pairs), and the medians differ, in its
              favour, by more than the parent's quartile distance;
* worse:      the change's median is worse than the parent's by more than
              the metric's bound;
* unresolved: the run-to-run spread (quartile distance over median) on
              either side is wider than the bound, unless every change run
              reads better than every parent run (then no worse), or every
              one reads worse by more than the bound (then worse);
* no worse:   otherwise.

Exits 1 when any metric is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> untraced run record."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    records = {}
    for file in files:
        with open(file, encoding="ascii") as fh:
            record = json.load(fh)
        if record.get("trace") == 0:
            records[(record["workload"], record["seed"])] = record
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > p3 - p1:
        return "improved", wins
    worse_by_more = -gain > bound * abs(pm)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "no worse", wins
        if worse_by_more and max(sign * c for c in change) < min(sign * p for p in parent):
            return "worse", wins
        return "unresolved", wins
    return ("worse" if worse_by_more else "no worse"), wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    any_worse = False
    print(f"{'workload':13s} {'metric':12s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'won':>7s}  verdict")
    for workload in spec.WORKLOADS:
        p_runs = [r for (w, _), r in sorted(parent.items()) if w == workload]
        c_runs = [r for (w, _), r in sorted(change.items()) if w == workload]
        if not p_runs or not c_runs:
            continue
        for name, unit, better, bound in spec.END_TO_END:
            p_values = [r["metrics"][name]["value"] for r in p_runs]
            c_values = [r["metrics"][name]["value"] for r in c_runs]
            pairs = list(zip(p_values, c_values))
            result, wins = verdict(p_values, c_values, pairs, better, bound)
            any_worse |= result == "worse"
            sides = [f"{q2:.6g} [{q1:.6g}, {q3:.6g}] {unit}"
                     for q1, q2, q3 in (quartiles(p_values), quartiles(c_values))]
            note = "" if len(pairs) >= MIN_PAIRS else f" ({len(pairs)} pairs < {MIN_PAIRS})"
            print(f"{workload:13s} {name:12s} {sides[0]:>36s} {sides[1]:>36s} "
                  f"{wins:>3d}/{len(pairs):<3d}  {result}{note}")
        failed = sum(r["failed"] for r in c_runs)
        if failed:
            print(f"{workload:13s} change: {failed} runs disagree with the reference")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
