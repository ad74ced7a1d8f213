"""What the benchmark runs and what it reports.

This module is the single description of the benchmark: the workloads (each
a fixed list of CLI invocations), the end-to-end metrics with their bounds,
and the per-layer metrics with the end-to-end metric and workload each one
should move.  ``BENCHMARK.json`` at the repository root is generated from it:

    python3 bench/spec.py > BENCHMARK.json
"""

from __future__ import annotations

import json

# how long one run measures; the driver passes it as --seconds
RUN_SECONDS = 25

# Where the benchmark writes its outputs, relative to the checkout root.  The
# CLI echoes ``out=`` paths on stdout, so they must be relative and fixed for
# the stdout digests to hold in any checkout.
OUT_DIR = ".bench_out"
CSV_DIR = f"{OUT_DIR}/csv"

CORPUS_CONFIGS = (
    "chareq_unit", "envelope_poly", "envelope_rv1", "envelope_sublinear",
    "fasterpoly_simulate", "linear_n16", "linear_n32", "linear_n64",
    "linear_sweep", "poly_dominated_f", "poly_n4", "poly_sweep", "rv1_n4",
    "sublinear_n10", "sublinear_n2",
)
CSV_CONFIGS = ("envelope_poly", "envelope_sublinear", "envelope_rv1",
               "rv1_n4", "sublinear_n10")

# workload name -> (why, ((run id, argv), ...)); a pass runs every argv once
WORKLOADS: dict[str, tuple[str, tuple[tuple[str, tuple[str, ...]], ...]]] = {
    "corpus": (
        "the 15 shipped configs as shipped: every module does a little, so "
        "per-run fixed costs (parse, probes, formatting) show here",
        tuple((name, (f"configs/{name}.cfg",)) for name in CORPUS_CONFIGS),
    ),
    "long_horizon": (
        "three long verify runs with no out=: the Euler loop in simulate_euler "
        "dominates, one with f nonzero",
        (
            ("linear_n1024", ("verify", "g=linear(1)", "tau=1", "psi=const(1)",
                              "N=1024", "horizon=100")),
            ("sublinear_n100", ("verify", "g=power(1,0.5)", "tau=1",
                                "psi=const(1)", "N=100", "horizon=2000")),
            ("poly_f_n64", ("verify", "f=power(1,0.5)", "g=power(1,2)",
                            "tau=1", "psi=const(1)", "N=64", "horizon=600")),
        ),
    ),
    "csv_out": (
        "five configs with out= set: envelope margins (one invert per row) "
        "and trajectory CSVs (evaluate_many) dominate, simulation is small",
        tuple((f"{name}_out", (f"configs/{name}.cfg", f"out={CSV_DIR}/{name}.csv"))
              for name in CSV_CONFIGS),
    ),
}

# (name, unit, better, bound); bound is the share of the parent's median by
# which a change may worsen the metric before it counts as a regression.  The
# timing bounds are wide because on a shared 2-vCPU virtual machine the pass
# times of one build were seen to move by up to 30% over tens of seconds.
END_TO_END = (
    # fresh interpreters that import delaygrowth.cli and load the workload's
    # configs, median of several
    ("setup_s", "s", "lower", 0.25),
    # median wall time of one pass
    ("wall_s", "s", "lower", 0.25),
    # the highest percentile of pass time with one pass beyond it (the
    # second-slowest pass); the record gives the percentile and pass count
    ("wall_s_tail", "s", "lower", 0.25),
    # forward Euler steps of the trajectories a pass delivers (fixed, from
    # the reference) over wall_s
    ("steps_per_s", "1/s", "higher", 0.25),
    # peak resident memory of the child process that runs the passes
    ("peak_rss_mb", "MB", "lower", 0.15),
    # runs that agree with the reference over runs attempted: 1 - fail ratio,
    # reported this way round because a metric must never read 0
    ("ok_ratio", "ratio", "higher", 0.01),
)

LONG, CSV, CORPUS = "long_horizon", "csv_out", "corpus"

# (name, unit, better, moves, workload, covers)
#   moves:    the end-to-end metrics this layer metric should move
#   workload: the workload on which it should move them
#   covers:   the traced function whose call count must be nonzero on that
#             workload, so that a refactor cannot silently zero the layer
PER_LAYER = (
    ("simulator.simulate_euler.calls", "count", "lower", ("wall_s",), CSV, "simulator.simulate_euler"),
    ("simulator.simulate_euler.s", "s", "lower", ("wall_s", "steps_per_s"), LONG, "simulator.simulate_euler"),
    ("simulator.steps", "count", "lower", ("steps_per_s",), LONG, "simulator.simulate_euler"),
    ("simulator.us_per_step", "us", "lower", ("wall_s", "steps_per_s"), LONG, "simulator.simulate_euler"),
    ("simulator.truncated_runs", "count", "lower", ("wall_s",), CORPUS, "simulator.simulate_euler"),
    ("simulator.self_s", "s", "lower", ("wall_s", "steps_per_s"), LONG, "simulator.simulate_euler"),
    ("logdomain.log_add.calls", "count", "lower", ("wall_s", "peak_rss_mb"), LONG, "logdomain.log_add"),
    ("logdomain.log_scale.calls", "count", "lower", ("wall_s", "peak_rss_mb"), LONG, "logdomain.log_scale"),
    ("runtime.gc_collections", "count", "lower", ("wall_s",), LONG, None),
    ("simulator.write_trajectory_csv.s", "s", "lower", ("wall_s",), CSV, "simulator.write_trajectory_csv"),
    ("simulator.write_trajectory_csv.rows", "count", "lower", ("wall_s",), CSV, "simulator.write_trajectory_csv"),
    ("functionals.invert.calls", "count", "lower", ("wall_s",), CSV, "functionals.invert"),
    ("functionals.invert.s", "s", "lower", ("wall_s",), CSV, "functionals.invert"),
    ("functionals.invert.evaluate_calls", "count", "lower", ("wall_s",), CSV, "functionals.invert"),
    ("functionals.evals_per_invert", "ratio", "lower", ("wall_s",), CSV, "functionals.invert"),
    ("functionals.evaluate.calls", "count", "lower", ("wall_s",), CSV, "functionals.evaluate"),
    ("functionals.evaluate_many.calls", "count", "lower", ("wall_s",), CSV, "functionals.evaluate_many"),
    ("functionals.evaluate_many.points", "count", "lower", ("wall_s",), CSV, "functionals.evaluate_many"),
    ("functionals.evaluate_many.s", "s", "lower", ("wall_s",), CSV, "functionals.evaluate_many"),
    ("functionals.diverges.calls", "count", "lower", ("wall_s",), CSV, "functionals.diverges"),
    ("functionals.self_s", "s", "lower", ("wall_s",), CSV, "functionals.invert"),
    ("analysis.predict.self_s", "s", "lower", ("wall_s",), CORPUS, "analysis.predict"),
    ("analysis.estimate_rate.self_s", "s", "lower", ("wall_s",), CORPUS, "analysis.estimate_rate"),
    ("analysis.verify_scenario.self_s", "s", "lower", ("wall_s",), CORPUS, "analysis.verify_scenario"),
    ("analysis.sweep_h.self_s", "s", "lower", ("wall_s",), CORPUS, "analysis.sweep_h"),
    ("analysis.derive_envelope_params.self_s", "s", "lower", ("wall_s",), CORPUS, "analysis.derive_envelope_params"),
    ("analysis.envelope_check.self_s", "s", "lower", ("wall_s",), CORPUS, "analysis.envelope_check"),
    # only out= runs write margins, so this layer is exercised on csv_out alone
    ("analysis.envelope_margins.self_s", "s", "lower", ("wall_s",), CSV, "analysis.envelope_margins"),
    ("analysis.self_s", "s", "lower", ("wall_s",), CORPUS, "analysis.predict"),
    ("coefficients.limit_probe.calls", "count", "lower", ("wall_s",), CORPUS, "coefficients.limit_probe"),
    ("coefficients.limit_probe.s", "s", "lower", ("wall_s",), CORPUS, "coefficients.limit_probe"),
    ("coefficients.parse_coefficient.calls", "count", "lower", ("wall_s",), CORPUS, "coefficients.parse_coefficient"),
    ("coefficients.classify_regime.calls", "count", "lower", ("wall_s",), CORPUS, "coefficients.classify_regime"),
    ("coefficients.self_s", "s", "lower", ("wall_s",), CORPUS, "coefficients.limit_probe"),
    ("cli.load_config.s", "s", "lower", ("wall_s",), CORPUS, "cli.load_config"),
    ("cli.build_scenario.s", "s", "lower", ("wall_s",), CORPUS, "cli.build_scenario"),
    ("cli.self_s", "s", "lower", ("wall_s",), CORPUS, "cli.main"),
    ("cli.output_drift_runs", "count", "lower", ("ok_ratio",), CORPUS, None),
    ("trace.span_overhead_s", "s", "lower", (), CORPUS, None),
    ("trace.count_overhead_s", "s", "lower", (), CSV, None),
)


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (why, _) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, *_ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
