"""Every checked-in config runs clean through the command line."""

import hashlib
import itertools
import json
import pathlib
import types

import pytest

from delaygrowth import analysis, cli
from delaygrowth.cli import main
from delaygrowth.coefficients import ExpLogPow, Power, Zero
from delaygrowth.simulator import (
    ConstantHistory, RampHistory, Scenario, Trajectory, simulate_euler,
)
from undelayed import undelayed_log_states

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.cfg"))

REFERENCE_RUNS = list(json.loads(
    (ROOT / "bench" / "reference" / "reference.json").read_text())["runs"].values())
# the benchmark's reference runs, keyed by their argv (paths relative to ROOT)
REFERENCE_STDOUT = {tuple(run["argv"]): run["stdout_sha256"] for run in REFERENCE_RUNS}
# verify prints the trajectory fingerprint, which the reference recorded under
# its earlier definition (repr_fingerprint below), so these runs' stdout
# digests are pinned here; every other digest is the reference's
VERIFY_STDOUT = {
    ("configs/linear_n16.cfg",):
        "0e8d87e7496d2e0575b0aa29211c7de42c32eb4d16e5f14ccd4422db60b1db66",
    ("configs/linear_n32.cfg",):
        "f39a04a2b8671197ebaf7b88c172c99c7b5fd18033119977bb087e988e5d02d8",
    ("configs/linear_n64.cfg",):
        "fd12c67e7bd80870f14c32df9767622aa3a925fa68edbcbad252bd5bc3278cf2",
    ("configs/poly_dominated_f.cfg",):
        "6aae9027854f6951c306266d81472ea57f7053d269a784497a7bc409ae30e478",
    ("configs/poly_n4.cfg",):
        "7643aaa0489cf752912a78b29a278dc1023a7f934236e15ca0809423ba2ee1a4",
    ("configs/rv1_n4.cfg",):
        "84913a62234f119c183517a0048d07a9515a389fac77916fcc73a15ecde29124",
    ("configs/sublinear_n10.cfg",):
        "f3cccb3d8ba120a4fed21734049a99a8d8e3a108b32728cdb48b714d9ad6eccc",
    ("configs/sublinear_n2.cfg",):
        "22eadb38396856d48a73e6fcccc5fe87ac756ca3fbb38f688bebf0ef634ace22",
    ("verify", "g=linear(1)", "tau=1", "psi=const(1)", "N=1024", "horizon=100"):
        "89c274f0b1bf6026673845fbf83ab31968f95c88f600f0fb257f1f75489bb624",
    ("verify", "g=power(1,0.5)", "tau=1", "psi=const(1)", "N=100", "horizon=2000"):
        "75207d0bb5af7b40d1ae5fdaf0eb4539b44f9ddd55ab65d91d7a06fc6272d65f",
    ("verify", "f=power(1,0.5)", "g=power(1,2)", "tau=1", "psi=const(1)", "N=64",
     "horizon=600"):
        "49f7800b69907ba57d84a10c4d551904fc3b157dffd0ba9204b55830bd52e19a",
}
assert VERIFY_STDOUT.keys() <= REFERENCE_STDOUT.keys()
STDOUT = REFERENCE_STDOUT | VERIFY_STDOUT
# the SHA-256 of the out= file of each reference run with one, by config
REFERENCE_OUT = {run["argv"][0]: run["out_sha256"]
                 for run in REFERENCE_RUNS if run["out_sha256"]}
# Power's ode-time closed form keeps its digits through expm1 near exponent
# 1, which moves sublinear_n10's functional and ratio columns by at most
# 1.6e-15 relative; the reference recorded d4428d75... before that change
OUT = REFERENCE_OUT | {
    "configs/sublinear_n10.cfg":
        "7314a9aee9f191b7776a6cd4663ac6ff180d5488611deed4d8d28010cc39f1fa",
}

# distinct trajectory fingerprints each config simulates, in run order; a
# changed Euler bit anywhere in the corpus shows up here
GOLDEN = {
    "chareq_unit": [],
    "envelope_poly": ["0d70b6a3283fe574"],
    "envelope_rv1": ["f6b3236c58a373fd"],
    "envelope_sublinear": ["b81150ed4a21ca56"],
    "fasterpoly_simulate": ["daa5edd16bcd50ea"],
    "linear_n16": ["72d900f8f6cd1ef2"],
    "linear_n32": ["2433043880cab0f2"],
    "linear_n64": ["8e071179f24e5117"],
    "linear_sweep": ["72d900f8f6cd1ef2", "2433043880cab0f2", "8e071179f24e5117"],
    "poly_dominated_f": ["4504b91f8172ca61"],
    "poly_n4": ["0d70b6a3283fe574"],
    "poly_sweep": ["f5f40162f1bade6c", "418f508c5faa7f49", "0d70b6a3283fe574",
                   "05584169d7281979"],
    "rv1_n4": ["f6b3236c58a373fd"],
    "sublinear_n10": ["b81150ed4a21ca56"],
    "sublinear_n2": ["f884643bc2a8c631"],
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
     "3d6aa169e62d589a"),
    (("g=power(1,0.5)", "tau=1", "psi=const(1)", "N=100", "horizon=2000"),
     "115af6e5da93f595"),
    (("f=power(1,0.5)", "g=power(1,2)", "tau=1", "psi=const(1)", "N=64", "horizon=600"),
     "b827822ffb0640b5"),
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
    assert stdout == STDOUT[(f"configs/{name}",)]


@pytest.mark.parametrize("args,fingerprint", LONG_GOLDEN)
def test_long_runs_match_the_golden_fingerprints(args, fingerprint, monkeypatch, capsys):
    seen, stdout = fingerprints_simulated(["verify", *args], monkeypatch, capsys)
    assert seen == [fingerprint]
    assert stdout == STDOUT[("verify", *args)]


@pytest.mark.parametrize("config", sorted(REFERENCE_OUT))
def test_out_files_match_the_reference_bytes(config, tmp_path, capsys):
    # the CSV bytes only: stdout echoes the path, which differs here
    target = tmp_path / "out.csv"
    code = main([str(ROOT / config), f"out={target}"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert hashlib.sha256(target.read_bytes()).hexdigest() == OUT[config]


def test_undelayed_run_matches_its_golden_fingerprint():
    states, truncated = undelayed_log_states(Power(1.0, 2.0), 2.0, 60)
    run = types.SimpleNamespace(log_states=states, truncated=truncated)
    assert Trajectory.fingerprint(run) == "1be5d149eaaf3bae"


# ---------------------------------------------------------------------------
# the byte fingerprint against its earlier definition

def repr_fingerprint(trajectory) -> str:
    """The fingerprint as first defined: SHA-256 of the comma-joined reprs of
    the states and the truncation flag, cut to 16 hex digits."""
    payload = ",".join(repr(float(v)) for v in trajectory.log_states)
    payload += f";truncated={trajectory.truncated}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def truncated_runs():
    """Three runs the log cap cuts, as in test_simulator: two in the window
    kernel (N = 4 and 7) and one in the per-step loop (N = 3)."""
    def run(g, n, history, horizon):
        return simulate_euler(Scenario(f=Zero(), g=g, tau=1.0, steps_per_delay=n,
                                       history=history, horizon=horizon))
    runs = [run(Power(1.0, 2.0), 4, ConstantHistory(2.0), 2000.0),
            run(Power(1.0, 2.0), 7, RampHistory(1e300, 2.0), 2000.0),
            run(ExpLogPow(1.0, 2.0), 3, ConstantHistory(1.0), 100.0)]
    assert all(t.truncated for t in runs)
    return runs


def test_byte_and_repr_fingerprints_tell_the_same_runs_apart(monkeypatch, capsys):
    runs = []

    def recording(scenario):
        runs.append(simulate_euler(scenario))
        return runs[-1]

    monkeypatch.setattr(analysis, "simulate_euler", recording)
    monkeypatch.setattr(cli, "simulate_euler", recording)
    monkeypatch.chdir(ROOT)         # the reference's config paths are relative
    argvs = [[f"configs/{name}"] for name in CONFIGS] + [["verify", *a] for a, _ in LONG_GOLDEN]
    for argv in argvs:
        start = len(runs)
        assert main(argv) == 0, capsys.readouterr().err
        # the states are the ones the reference recorded, bit for bit
        reference = next(r for r in REFERENCE_RUNS if r["argv"] == argv)
        assert list(dict.fromkeys(map(repr_fingerprint, runs[start:]))) == \
            reference["fingerprints"]
    states, truncated = undelayed_log_states(Power(1.0, 2.0), 2.0, 60)
    runs.append(types.SimpleNamespace(log_states=states, truncated=truncated))
    runs.extend(truncated_runs())

    old = [repr_fingerprint(t) for t in runs]
    new = [Trajectory.fingerprint(t) for t in runs]
    assert len(set(old)) == 19      # the 16 golden trajectories and 3 truncated ones
    for a, b in itertools.combinations(range(len(runs)), 2):
        assert (old[a] == old[b]) == (new[a] == new[b])
