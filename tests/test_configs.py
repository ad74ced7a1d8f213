"""Every checked-in config runs clean through the command line."""

import hashlib
import json
import pathlib
import types

import pytest

from delaygrowth import analysis, cli
from delaygrowth.cli import main
from delaygrowth.coefficients import Power
from delaygrowth.simulator import Trajectory, simulate_euler
from undelayed import undelayed_log_states

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.cfg"))

REFERENCE_RUNS = list(json.loads(
    (ROOT / "bench" / "reference" / "reference.json").read_text())["runs"].values())
# the benchmark's reference runs, keyed by their argv (paths relative to ROOT)
REFERENCE_STDOUT = {tuple(run["argv"]): run["stdout_sha256"] for run in REFERENCE_RUNS}
# the SHA-256 of the out= file of each reference run with one, by config
REFERENCE_OUT = {run["argv"][0]: run["out_sha256"]
                 for run in REFERENCE_RUNS if run["out_sha256"]}

# distinct trajectory fingerprints each config simulates, in run order; a
# changed Euler bit anywhere in the corpus shows up here
GOLDEN = {
    "chareq_unit": [],
    "envelope_poly": ["f5ef21ce8b69ba4e"],
    "envelope_rv1": ["8b25e028fe894b69"],
    "envelope_sublinear": ["9785762a9134e5a4"],
    "fasterpoly_simulate": ["20483a85b7cf913e"],
    "linear_n16": ["303b23d1e40deb23"],
    "linear_n32": ["c61b1ffb73011fc6"],
    "linear_n64": ["8ce3ec80a5bfe3b3"],
    "linear_sweep": ["303b23d1e40deb23", "c61b1ffb73011fc6", "8ce3ec80a5bfe3b3"],
    "poly_dominated_f": ["7c26256c2ef9b1f2"],
    "poly_n4": ["f5ef21ce8b69ba4e"],
    "poly_sweep": ["b4df014b90c50090", "402727dbeade10af", "f5ef21ce8b69ba4e",
                   "701032dbc41fcf0e"],
    "rv1_n4": ["8b25e028fe894b69"],
    "sublinear_n10": ["9785762a9134e5a4"],
    "sublinear_n2": ["282cd4febc8b02aa"],
}


def test_the_corpus_is_present():
    assert len(CONFIGS) == 15


@pytest.mark.parametrize("name", CONFIGS)
def test_config_runs_clean(name, capsys, tmp_path):
    # route file output into the sandbox so reruns cannot collide
    code = main([str(CONFIG_DIR / name), f"out={tmp_path / 'out.csv'}"])
    captured = capsys.readouterr()
    assert code == 0, captured.err


# long verify runs at large N (the window kernel) and with f nonzero (the
# per-step loop), and the fingerprint each simulates
LONG_GOLDEN = [
    (("g=linear(1)", "tau=1", "psi=const(1)", "N=1024", "horizon=100"),
     "67a1cd40559240d6"),
    (("g=power(1,0.5)", "tau=1", "psi=const(1)", "N=100", "horizon=2000"),
     "5adb6d3bd9410097"),
    (("f=power(1,0.5)", "g=power(1,2)", "tau=1", "psi=const(1)", "N=64", "horizon=600"),
     "2db0de50e4c96169"),
]


def fingerprints_simulated(argv, monkeypatch, capsys):
    """The distinct fingerprints the run simulates, and the SHA-256 of its stdout."""
    seen = []

    def recording(scenario):
        trajectory = simulate_euler(scenario)
        seen.append(trajectory.fingerprint())
        return trajectory

    monkeypatch.setattr(analysis, "simulate_euler", recording)
    monkeypatch.setattr(cli, "simulate_euler", recording)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return list(dict.fromkeys(seen)), hashlib.sha256(captured.out.encode()).hexdigest()


@pytest.mark.parametrize("name", CONFIGS)
def test_config_trajectories_match_the_golden_fingerprints(name, monkeypatch, capsys):
    seen, stdout = fingerprints_simulated([str(CONFIG_DIR / name)], monkeypatch, capsys)
    assert seen == GOLDEN[name[:-len(".cfg")]]
    assert stdout == REFERENCE_STDOUT[(f"configs/{name}",)]


@pytest.mark.parametrize("args,fingerprint", LONG_GOLDEN)
def test_long_runs_match_the_golden_fingerprints(args, fingerprint, monkeypatch, capsys):
    seen, stdout = fingerprints_simulated(["verify", *args], monkeypatch, capsys)
    assert seen == [fingerprint]
    assert stdout == REFERENCE_STDOUT[("verify", *args)]


@pytest.mark.parametrize("config", sorted(REFERENCE_OUT))
def test_out_files_match_the_reference_bytes(config, tmp_path, capsys):
    # the CSV bytes only: stdout echoes the path, which differs here
    target = tmp_path / "out.csv"
    code = main([str(ROOT / config), f"out={target}"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(target.read_bytes()).hexdigest() == REFERENCE_OUT[config]


def test_undelayed_run_matches_its_golden_fingerprint():
    states, truncated = undelayed_log_states(Power(1.0, 2.0), 2.0, 60)
    run = types.SimpleNamespace(log_states=states, truncated=truncated)
    assert Trajectory.fingerprint(run) == "1f9723fd89b36aa2"
