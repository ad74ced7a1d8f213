import contextlib
import hashlib
import io
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from delaygrowth import cli
from delaygrowth.cli import ConfigError, load_config, main


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


SUBLINEAR = """
command = verify
f       = zero
g       = power(1, 0.5)
tau     = 1
psi     = const(1)
N       = 4
horizon = 150
"""


# ---------------------------------------------------------------------------
# config parsing

def test_command_form_with_overrides():
    config = load_config(["verify", "g=const(2)", "tau=1"])
    assert config.command == "verify"
    assert config.values == {"g": "const(2)", "tau": "1"}


def test_file_form_reads_keys(tmp_path):
    config = load_config([write_config(tmp_path, SUBLINEAR)])
    assert config.command == "verify"
    assert config.values["g"] == "power(1, 0.5)"
    assert config.values["N"] == "4"


def test_overrides_win_over_the_file(tmp_path):
    path = write_config(tmp_path, SUBLINEAR)
    config = load_config([path, "N=8", "command=predict"])
    assert config.command == "predict"
    assert config.values["N"] == "8"


def test_comments_and_blank_lines_are_skipped(tmp_path):
    path = write_config(tmp_path, "# header\ncommand = chareq\n\ntau = 1  # delay\nC = 1\n")
    config = load_config([path])
    assert config.values == {"tau": "1", "C": "1"}


@pytest.mark.parametrize("text,fragment", [
    ("command = simulate\nnot a pair\n", ":2: expected 'key = value'"),
    ("command = simulate\nwidth = 3\n", ":2: unknown key 'width'"),
    ("command = simulate\ntau = 1\ntau = 2\n", ":3: duplicate key 'tau'"),
])
def test_file_diagnostics_carry_line_numbers(tmp_path, text, fragment):
    with pytest.raises(ConfigError) as err:
        load_config([write_config(tmp_path, text)])
    assert fragment in str(err.value)


def test_config_without_a_command_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="no command"):
        load_config([write_config(tmp_path, "tau = 1\n")])


def test_unknown_names_are_rejected():
    with pytest.raises(ConfigError, match="no such config file or command"):
        load_config(["frobnicate"])
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(["simulate", "speed=9"])
    with pytest.raises(ConfigError, match="KEY=VALUE"):
        load_config(["simulate", "justaword"])


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == """\
error: usage: delaygrowth CONFIG [KEY=VALUE ...]
       delaygrowth COMMAND [KEY=VALUE ...]

commands: simulate | predict | verify | sweep | chareq | envelope
keys: f, g, tau, psi, N, horizon, out, tol, eps, C
"""


# ---------------------------------------------------------------------------
# commands

def test_chareq_prints_twelve_digits(capsys):
    assert main(["chareq", "C=1", "tau=1"]) == 0
    assert capsys.readouterr().out == "0.567143290410\n"


def test_chareq_needs_its_keys(capsys):
    assert main(["chareq", "tau=1"]) == 2
    assert "needs the key 'C'" in capsys.readouterr().err


def test_simulate_writes_csv_to_stdout(capsys):
    assert main(["simulate", "g=const(2)", "tau=1", "psi=const(1)",
                 "N=2", "horizon=3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,t,log_x,functional,ratio"
    assert lines[1].startswith("-2,-1.0,0.0,")
    assert len(lines) == 1 + 2 + 1 + 6      # header, history, start, forward


def test_simulate_reruns_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, SUBLINEAR + "out = {}\n".format(tmp_path / "a.csv"))
    assert main([cfg, "command=simulate"]) == 0
    assert main([cfg, "command=simulate", f"out={tmp_path / 'b.csv'}"]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_verify_passes_on_a_sublinear_run(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main([write_config(tmp_path, SUBLINEAR), f"out={out}"]) == 0
    text = capsys.readouterr().out
    assert "verdict: PASS" in text
    assert out.read_text(encoding="ascii").startswith("n,t,log_x,functional,ratio\n")


def test_verify_fails_under_a_tight_tolerance(tmp_path, capsys):
    assert main([write_config(tmp_path, SUBLINEAR), "tol=1e-6"]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_verify_rejects_a_vanishing_delayed_term(capsys):
    code = main(["verify", "g=zero", "tau=1", "psi=const(1)", "N=4",
                 "horizon=150"])
    assert code == 2
    assert "must be strictly positive" in capsys.readouterr().err


def test_predict_reports_the_regime(capsys):
    assert main(["predict", "g=power(1,2)", "tau=1", "psi=const(1)",
                 "N=4", "horizon=600"]) == 0
    text = capsys.readouterr().out
    assert "regime: poly-superlinear" in text
    assert "grid rate at h=0.25:" in text


def test_predict_reports_the_linear_rate_where_exp_underflows(capsys):
    # the root W(1e600)/1e300, to 50 digits 1.3743253375703266...e-297;
    # exp(-lambda tau) leaves the normal doubles during the bisection
    assert main(["predict", "g=linear(1e300)", "tau=1e300", "psi=const(1)",
                 "N=1", "horizon=1e300"]) == 0
    assert "continuous rate: 1.3743253375703266e-297\n" in capsys.readouterr().out


def test_predict_refusal_exits_2(capsys):
    code = main(["predict", "g=power(1,2)", "f=power(1,1.2)", "tau=1",
                 "psi=const(1)", "N=4", "horizon=600"])
    assert code == 2
    assert "dominance hypothesis failed" in capsys.readouterr().err


def test_short_runs_exit_3(capsys):
    code = main(["verify", "g=const(2)", "tau=1", "psi=const(1)", "N=4",
                 "horizon=30"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_sweep_emits_the_table_and_limit_row(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "g=const(2)", "tau=1", "psi=const(1)",
                 "N=2,4,8", "horizon=200", f"out={out}"])
    assert code == 0
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "N,h,predicted,estimated,status"
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "4", "8", "0"]
    assert lines[-1].endswith("extrapolated")
    assert "extrapolated rate at h=0:" in capsys.readouterr().out


def test_sweep_to_stdout_is_pure_csv(capsys):
    assert main(["sweep", "g=const(2)", "tau=1", "psi=const(1)",
                 "N=2,4,8", "horizon=200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N,h,predicted,estimated,status"
    assert all("," in line for line in lines)


def test_sweep_refuses_an_unreadable_observable_before_simulating(monkeypatch, capsys):
    def no_simulation(scenario):
        raise AssertionError("sweep simulated before refusing")

    monkeypatch.setattr("delaygrowth.analysis.simulate_euler", no_simulation)
    code = main(["sweep", "g=powerlog(1,1,2)", "tau=1", "psi=const(3)",
                 "N=2,4,8", "horizon=200"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no usable functional to verify the rv1-superlinear "
                            "rate for powerlog(1.0,1.0,2.0)\n")


def test_sweep_needs_three_distinct_grids(capsys):
    code = main(["sweep", "g=const(2)", "tau=1", "psi=const(1)",
                 "N=4,4,4", "horizon=200"])
    assert code == 2
    assert "3 distinct grids" in capsys.readouterr().err


def test_sweep_rejects_a_malformed_grid_list(capsys):
    code = main(["sweep", "g=const(2)", "tau=1", "psi=const(1)",
                 "N=2;4;8", "horizon=200"])
    assert code == 2
    assert "comma-separated" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["simulate", "g=const(2)", "tau=1", "psi=const(1)", "N=2", "horizon=3"],
    ["verify", "g=power(1,0.5)", "tau=1", "psi=const(1)", "N=4", "horizon=150"],
    ["sweep", "g=const(2)", "tau=1", "psi=const(1)", "N=2,4,8", "horizon=200"],
    ["envelope", "g=const(2)", "tau=1", "psi=const(1)", "N=4", "horizon=60"],
], ids=lambda args: args[0])
def test_unwritable_out_exits_2(tmp_path, capsys, args):
    # exit 1 would read as a failed verification
    out = tmp_path / "missing" / "out.csv"
    assert main(args + [f"out={out}"]) == 2
    assert f"error: cannot write {out}: No such file or directory" in capsys.readouterr().err


_PREDICT = ["predict", "tau=1", "N=4", "horizon=10"]


@pytest.mark.parametrize("args,message", [
    # the texts of test_parse_rejects_malformed_input, as g=
    (["g=wibble(1.0)"], "unknown coefficient shape 'wibble'"),
    (["g=power(1.0)"], "power takes 2 parameter(s), got 1 in 'power(1.0)'"),
    (["g=power(1.0, 2.0, 3.0)"],
     "power takes 2 parameter(s), got 3 in 'power(1.0, 2.0, 3.0)'"),
    (["g=const()"], "const takes 1 parameter(s), got 0 in 'const()'"),
    (["g=const(-1.0)"], "const level must be positive and finite, got -1.0"),
    (["g=const(two)"], "bad numeric parameter 'two' in 'const(two)'"),
    (["g=zero(1.0)"], "zero takes 0 parameter(s), got 1 in 'zero(1.0)'"),
    (["g="], "override 'g=': expected KEY=VALUE"),
    # the power-law shapes: parameters out of range and a wrong arity
    (["g=const(1e400)"], "const level must be positive and finite, got inf"),
    (["g=linear(0)"], "linear slope must be positive and finite, got 0.0"),
    (["g=linear(1,2)"], "linear takes 1 parameter(s), got 2 in 'linear(1,2)'"),
    (["g=power(1,nan)"], "power exponent must be nonnegative, got nan"),
    (["g=const(1)", "psi=ramp(1,2,3)"], "ramp takes 2 parameter(s), got 3 in 'ramp(1,2,3)'"),
    (["g=const(1)", "psi=ramp(1,nan)"],
     "history end must be positive and finite, got nan"),
    # histories share the shapes' reader, and with it their messages
    (["g=const(1)", "psi=-1"], "history level must be positive and finite, got -1.0"),
    (["g=const(1)", "psi=blah(1,2)"], "unknown history shape 'blah'"),
    (["g=const(1)", "psi=ramp(x,1)"], "bad numeric parameter 'x' in 'ramp(x,1)'"),
    (["g=const(1)", "psi=const"], "const takes 1 parameter(s), got 0 in 'const'"),
    (["g=const(1)", "tau=abc"], "key 'tau': not a number: 'abc'"),
    (["g=const(1)", "N=1.5"], "key 'N': not an integer: '1.5'"),
    (["g=const(1)", "speed=9"], "override 'speed=9': unknown key 'speed'"),
    (["g=const(1)", "command=nope"], "unknown command 'nope'; choose from "
                                     "simulate, predict, verify, sweep, chareq, envelope"),
])
def test_rejected_input_gives_the_exact_message(args, message, capsys):
    assert main(_PREDICT + ["psi=const(1)"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_duplicate_config_key_gives_the_exact_message(tmp_path, capsys):
    path = write_config(tmp_path, "command = predict\ntau = 1\ntau = 2\n")
    assert main([path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:3: duplicate key 'tau'\n"


def test_a_directory_as_config_exits_2(tmp_path, capsys):
    assert main([str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {tmp_path}: ")


def test_non_ascii_config_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes((SUBLINEAR + "# delay \u03c4\n").encode("utf-8"))
    assert main([str(path)]) == 2
    assert f"error: cannot read {path}: not ASCII text" in capsys.readouterr().err


@pytest.mark.parametrize("tau", ["1e-300", "1e-320"])
def test_a_step_count_beyond_the_index_range_exits_2(tau, capsys):
    # 4e300 steps, and inf steps once h is subnormal; exit 1 would read as a
    # failed verification
    code = main(["verify", "g=power(1,0.5)", f"tau={tau}", "psi=const(1)",
                 "N=4", "horizon=1"])
    assert code == 2
    assert "a run counts at most" in capsys.readouterr().err


def test_a_run_beyond_the_state_budget_exits_2_before_simulating(monkeypatch, capsys):
    # 4e9 steps never reach the log cap in the linear regime; 8 bytes each
    # would take 32 GB
    def no_simulation(scenario):
        raise AssertionError("simulated past the state budget")

    monkeypatch.setattr("delaygrowth.analysis.simulate_euler", no_simulation)
    code = main(["verify", "g=linear(1)", "tau=1", "psi=const(1)", "N=4", "horizon=1e9"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: horizon 1000000000.0 takes 4000000000.0 steps of "
                            "h = 0.25; a run counts at most 67108864\n")


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_verify_rejects_a_nonpositive_or_non_finite_tolerance(tol, capsys):
    code = main(["verify", "g=power(1,0.5)", "tau=1", "psi=const(1)",
                 "N=4", "horizon=50", f"tol={tol}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: tolerance must be positive and finite, "
                            f"got {float(tol)!r}\n")


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_sweep_rejects_a_negative_or_non_finite_tolerance(tol, capsys):
    code = main(["sweep", "g=const(2)", "tau=1", "psi=const(1)",
                 "N=2,4,8", "horizon=200", f"tol={tol}"])
    assert code == 2
    assert "key 'tol'" in capsys.readouterr().err


def test_envelope_reports_and_writes_margins(tmp_path, capsys):
    out = tmp_path / "margins.csv"
    code = main(["envelope", "g=const(2)", "tau=1", "psi=const(1)",
                 "N=4", "horizon=60", "eps=0.5", f"out={out}"])
    assert code == 0
    text = capsys.readouterr().out
    assert "holds: yes" in text
    assert "violations: 0" in text
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "n,t,log_x,envelope"
    assert len(lines) == 1 + 4 * 60 + 4 + 1


def test_envelope_violation_exits_1(monkeypatch, capsys):
    class Fake:
        class params:
            eps, rate, offset, floor_log = 0.5, 1.0, 2.0, 1.0
        class trajectory:
            truncated = False
        checked, violations = 7, (3,)
        holds = False
    monkeypatch.setattr(cli, "envelope_check", lambda scenario, eps: Fake)
    code = main(["envelope", "g=const(2)", "tau=1", "psi=const(1)",
                 "N=4", "horizon=60"])
    assert code == 1
    assert "holds: no" in capsys.readouterr().out


# envelope scales on the probe ladder past double range: the rungs 1000 and
# 3000 are log x values whose x overflows a double
@pytest.mark.parametrize("args,floor_log", [
    (("f=power(1e300,0.5)", "g=power(1,2)", "psi=const(1)", "horizon=10"), "3000.0"),
    (("f=power(1e300,0.5)", "g=linear(1)", "psi=const(1)", "horizon=50"), "3000.0"),
    (("g=power(1e300,2)", "psi=const(1)", "horizon=50"), "1000.0"),
    (("g=power(1,2)", "psi=ramp(1e300,1)", "horizon=50"), "999.999999944112"),
], ids=["huge-f-poly", "huge-f-linear", "huge-g-poly", "huge-history-poly"])
def test_envelope_scales_past_double_range(args, floor_log, capsys):
    code = main(["envelope", *args, "tau=1", "N=4"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    assert "holds: yes" in captured.out
    assert f"floor (log): {floor_log}\n" in captured.out


# the fast regime's envelope (the triple-log comparison scale) end to end:
# stdout and the SHA-256 of the out= margins
FAST_ENVELOPE_GOLDEN = [
    ("explogpow(1,2)", [
        "eps: 0.5",
        "rate: 0.6931471805599453",
        "offset: 4.57886138510592",
        "floor (log): 10.000090837478638",
        "steps checked: 118 (trajectory truncated at the overflow cap)",
        "violations: 0",
        "holds: yes",
    ], "b700d37c4d9d9b009faeb8e6401667a6105416f7c8b90e2d84434a89f424551c"),
    ("explogpow(2,3)", [
        "eps: 0.5",
        "rate: 1.0986122886681098",
        "offset: 3.4425452549855544",
        "floor (log): 10.000090837478638",
        "steps checked: 77 (trajectory truncated at the overflow cap)",
        "violations: 0",
        "holds: yes",
    ], "dae91631d1c620f2441cf4e1be44b048f6792653867d3504b1aa98f0e617d843"),
]


@pytest.mark.parametrize("g,lines,out_sha256", FAST_ENVELOPE_GOLDEN,
                         ids=[g for g, _, _ in FAST_ENVELOPE_GOLDEN])
def test_fast_regime_envelope_matches_the_golden_bytes(g, lines, out_sha256, tmp_path, capsys):
    out = tmp_path / "margins.csv"
    code = main(["envelope", f"g={g}", "tau=1", "psi=const(2)", "N=8",
                 "horizon=100", f"out={out}"])
    assert code == 0
    assert capsys.readouterr().out == "\n".join(lines + [f"wrote margins to {out}"]) + "\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha256


_COEFF = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: f"{10.0 ** e!r}")
_SHAPE = st.one_of(
    st.builds("const({})".format, _COEFF),
    st.builds("linear({})".format, _COEFF),
    st.builds("power({},{})".format, _COEFF, st.floats(0.0, 3.0)),
    st.builds("xexplogpow({},{})".format, _COEFF, st.floats(0.05, 1.5)),
    st.builds("explogpow({},{})".format, _COEFF, st.floats(0.05, 3.0)),
    st.builds("powerlog({},{},{})".format, _COEFF, st.floats(0.0, 2.5),
              st.floats(-2.0, 2.0)),
)
_LEVEL = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e)
_HISTORY = st.one_of(st.builds("const({!r})".format, _LEVEL),
                     st.builds("ramp({!r},{!r})".format, _LEVEL, _LEVEL))


@settings(deadline=None)
@given(f=st.one_of(st.just("zero"), _SHAPE), g=_SHAPE, psi=_HISTORY,
       n=st.sampled_from([1, 2, 4, 8]), tau=st.floats(0.5, 2.0), horizon=st.floats(1.0, 50.0),
       eps=st.sampled_from([0.1, 0.5, 0.9]))
def test_envelope_never_raises(f, g, psi, n, tau, horizon, eps):
    # every outcome is an exit code: PASS, FAIL, bad input or numeric failure
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["envelope", f"f={f}", f"g={g}", f"psi={psi}", f"N={n}",
                     f"tau={tau!r}", f"horizon={horizon!r}", f"eps={eps!r}"])
    assert code in (0, 1, 2, 3)


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["delaygrowth", "chareq", "C=1", "tau=1"])
    assert main() == 0
    assert capsys.readouterr().out.strip() == "0.567143290410"


# ---------------------------------------------------------------------------
# in a fresh interpreter

def package_env():
    """The environment with this checkout's package first on the path."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("package", ["scipy", "sympy", "mpmath"])
def test_importing_the_cli_does_not_load(package):
    # scipy.special is most of the import time; only the RV1 ode-time
    # closed form needs it, and it imports it when called.  sympy and
    # mpmath are test-only dependencies, which the package never loads
    code = ("import sys, delaygrowth.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=package_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_a_closed_stdout_exits_141_in_silence():
    # 20,001 CSV rows, far more than a pipe holds, so the writes after the
    # reader closes fail; as with `delaygrowth simulate ... | head -2`
    argv = [sys.executable, "-m", "delaygrowth.cli", "simulate", "g=power(1,0.5)", "tau=1",
            "psi=const(1)", "N=10", "horizon=2000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=package_env())
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert stderr == b""
    assert head == [b"n,t,log_x,functional,ratio\n", b"-10,-1.0,0.0,,\n"]
