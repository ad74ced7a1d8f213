import io
import math
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from delaygrowth.coefficients import (
    CoefficientSpec, Constant, ExpLogPow, Linear, Power, PowerLog, Zero,
    LinTimesExpLogPow,
)
from delaygrowth.errors import DomainError
from delaygrowth.functionals import ode_time
from delaygrowth.logdomain import LOG_CAP
from delaygrowth.simulator import (
    ConstantHistory, RampHistory, Scenario, SimulationError, Trajectory,
    interpolate, parse_history, simulate_direct, simulate_euler,
    simulate_undelayed, write_trajectory_csv, _step_singly, _step_windows,
)


def scenario(**kw):
    base = dict(f=Zero(), g=Constant(2.0), tau=1.0, steps_per_delay=4,
                history=ConstantHistory(1.0), horizon=2.0)
    base.update(kw)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# stepping

def test_constant_delayed_term_gives_arithmetic_progression():
    traj = simulate_euler(scenario())
    # increment is h*2 = 0.5 every step
    for n in traj.indices():
        expected = 1.0 if n <= 0 else 1.0 + 0.5 * n
        assert math.exp(traj.state(n)) == pytest.approx(expected, rel=1e-12)
    assert not traj.truncated
    assert traj.forward_steps == 8
    assert traj.n_start == -4


def test_early_steps_consume_the_history_in_order():
    traj = simulate_euler(scenario(g=Linear(1.0),
                                   history=RampHistory(1.0, 2.0)))
    h = 0.25
    psi = [1.0, 1.25, 1.5, 1.75, 2.0]      # grid history, oldest first
    x = 2.0
    for n in range(1, 5):
        x += h * psi[n - 1]                # g is the identity on the delayed state
        assert math.exp(traj.state(n)) == pytest.approx(x, rel=1e-12)


def test_states_increase_strictly():
    traj = simulate_euler(scenario(f=Linear(0.5), g=Linear(1.0),
                                   steps_per_delay=8, horizon=6.0))
    forward = [traj.state(n) for n in range(0, traj.n_end + 1)]
    assert all(b > a for a, b in zip(forward, forward[1:]))


@pytest.mark.parametrize("kw", [
    dict(g=Linear(1.0), steps_per_delay=8, horizon=6.0),
    dict(f=Linear(0.5), g=Linear(1.0), steps_per_delay=8, horizon=6.0),
    dict(g=LinTimesExpLogPow(1.0, 0.5), steps_per_delay=6, horizon=4.0),
    dict(g=Power(1.0, 0.5), history=ConstantHistory(4.0), horizon=10.0),
])
def test_log_route_matches_direct_arithmetic(kw):
    sc = scenario(**kw)
    a = simulate_euler(sc)
    b = simulate_direct(sc)
    assert not a.truncated and not b.truncated
    assert len(a.log_states) == len(b.log_states)
    for va, vb in zip(a.log_states, b.log_states):
        assert va == pytest.approx(vb, abs=1e-9)


def test_fast_growth_truncates_cleanly():
    # log x roughly doubles per delay window, so the cap falls near t=1280
    sc = scenario(g=Power(1.0, 2.0), history=ConstantHistory(2.0),
                  horizon=2000.0)
    traj = simulate_euler(sc)
    assert traj.truncated
    assert traj.n_end * traj.h < 2000.0
    assert all(v <= LOG_CAP for v in traj.log_states)
    forward = [traj.state(n) for n in range(0, traj.n_end + 1)]
    assert all(b > a for a, b in zip(forward, forward[1:]))


def test_direct_route_truncates_at_its_cap():
    sc = scenario(g=Power(1.0, 2.0), history=ConstantHistory(2.0),
                  horizon=1000.0)
    direct = simulate_direct(sc, cap=1e12)
    assert direct.truncated
    log_route = simulate_euler(sc)
    for va, vb in zip(log_route.log_states, direct.log_states):
        assert va == pytest.approx(vb, abs=1e-9)


# ---------------------------------------------------------------------------
# the window kernel (f = 0) against the per-step loop

def run_with(stepper, sc):
    states = [math.log(v) for v in sc.history_samples()]
    truncated = stepper(sc, states)
    return [v.hex() for v in states], truncated


_COEF = st.floats(0.1, 5.0)
_CATALOG = st.one_of(
    st.builds(Constant, _COEF),
    st.builds(Power, _COEF, st.floats(0.0, 3.0)),
    st.builds(Linear, _COEF),
    st.builds(LinTimesExpLogPow, _COEF, st.floats(0.1, 1.5)),
    st.builds(ExpLogPow, _COEF, st.floats(0.5, 2.5)),
    st.tuples(_COEF, st.floats(0.0, 3.0), st.floats(-2.0, 3.0))
    .filter(lambda p: p[1] > 0 or p[2] >= 0).map(lambda p: PowerLog(*p)),
)
_LEVEL = st.floats(1.01, 1e4)


@st.composite
def zero_f_scenarios(draw):
    n = draw(st.integers(1, 40))
    tau = draw(st.sampled_from([0.5, 1.0, 3.0]))
    history = draw(st.one_of(st.builds(ConstantHistory, _LEVEL),
                             st.builds(RampHistory, _LEVEL, _LEVEL)))
    steps = draw(st.integers(1, 25 * n + n - 1))     # often a partial last window
    return Scenario(f=Zero(), g=draw(_CATALOG), tau=tau, steps_per_delay=n,
                    history=history, horizon=steps * tau / n)


@given(zero_f_scenarios())
def test_window_kernel_matches_the_step_loop_bit_for_bit(sc):
    kernel = run_with(_step_windows, sc)
    assert kernel == run_with(_step_singly, sc)
    traj = simulate_euler(sc)
    assert ([v.hex() for v in traj.log_states], traj.truncated) == kernel
    assert all(type(v) is float for v in traj.log_states)


@pytest.mark.parametrize("kw", [
    dict(g=Power(1.0, 2.0), history=ConstantHistory(2.0), horizon=2000.0),
    dict(g=Power(1.0, 2.0), steps_per_delay=7, history=RampHistory(1e300, 2.0),
         horizon=2000.0),
    dict(g=ExpLogPow(1.0, 2.0), steps_per_delay=8, horizon=100.0),
    dict(g=ExpLogPow(1.0, 2.0), steps_per_delay=3, horizon=100.0),
])
def test_window_kernel_truncates_where_the_step_loop_does(kw):
    sc = scenario(**kw)
    kernel = run_with(_step_windows, sc)
    assert kernel[1]
    assert kernel == run_with(_step_singly, sc)


@dataclass(frozen=True)
class UndefinedPast(CoefficientSpec):
    """log F(x) = log x up to ``bound``, nan beyond it."""

    bound: float

    def log_term(self, u: float) -> float:
        return u if u <= self.bound else math.nan


@pytest.mark.parametrize("n", [1, 3, 4, 9])
def test_both_steppers_report_an_undefined_state_alike(n):
    sc = scenario(g=UndefinedPast(2.0), steps_per_delay=n, horizon=50.0)
    messages = []
    for stepper in (_step_windows, _step_singly):
        with pytest.raises(SimulationError) as err:
            run_with(stepper, sc)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    with pytest.raises(SimulationError):
        simulate_euler(sc)


def test_window_memory_follows_the_steps_taken():
    # 8e6 planned steps, cut by the cap after 119: a buffer sized to the
    # horizon would take 64 MB
    sc = scenario(g=ExpLogPow(1.0, 2.0), steps_per_delay=8, horizon=1e6)
    assert sc.planned_steps() == 8_000_000
    tracemalloc.start()
    try:
        traj = simulate_euler(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.truncated
    assert len(traj.log_states) == 128
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# scenario validation

def test_scenario_validation():
    with pytest.raises(DomainError):
        scenario(tau=0.0)
    with pytest.raises(DomainError):
        scenario(horizon=-1.0)
    with pytest.raises(DomainError):
        scenario(steps_per_delay=0)
    with pytest.raises(DomainError):
        scenario(steps_per_delay=2.0)
    with pytest.raises(DomainError):
        scenario(steps_per_delay=True)
    with pytest.raises(DomainError):
        scenario(g=Zero())


def test_scenario_checks_domains_against_the_history():
    # the delayed term sees every history point; x (log x)^1 needs x > 1
    with pytest.raises(DomainError):
        scenario(g=PowerLog(1.0, 1.0, 1.0))
    # the instantaneous term only sees states from t = 0 on
    sc = scenario(f=PowerLog(1.0, 1.0, 1.0), g=Linear(1.0),
                  history=RampHistory(0.5, 2.0))
    assert sc.history_min() == 0.5
    with pytest.raises(DomainError):
        scenario(f=PowerLog(1.0, 1.0, 1.0), g=Linear(1.0))


def test_planned_steps_handles_inexact_horizons():
    assert scenario(horizon=2.0).planned_steps() == 8
    assert scenario(horizon=0.3).planned_steps() == 1
    assert scenario(tau=0.1, steps_per_delay=1, horizon=0.3).planned_steps() == 3


# ---------------------------------------------------------------------------
# trajectory access

def test_state_and_time_accessors():
    traj = simulate_euler(scenario())
    assert traj.time(4) == 1.0
    assert traj.state(0) == 0.0
    with pytest.raises(DomainError):
        traj.state(traj.n_end + 1)
    with pytest.raises(DomainError):
        traj.state(traj.n_start - 1)


def test_interpolation_is_log_linear():
    traj = simulate_euler(scenario())
    mid = interpolate(traj, 0.625)          # halfway between n=2 and n=3
    assert mid == pytest.approx(0.5 * (traj.state(2) + traj.state(3)))
    assert interpolate(traj, traj.n_end * traj.h) == traj.state(traj.n_end)
    assert interpolate(traj, -1.0) == traj.state(-4)
    with pytest.raises(DomainError):
        interpolate(traj, 2.1)
    with pytest.raises(DomainError):
        interpolate(traj, -1.1)


def test_fingerprints_are_stable_and_distinguishing():
    a1 = simulate_euler(scenario())
    a2 = simulate_euler(scenario())
    b = simulate_euler(scenario(horizon=3.0))
    assert a1.fingerprint() == a2.fingerprint()
    assert a1.fingerprint() != b.fingerprint()
    assert len(a1.fingerprint()) == 16


# ---------------------------------------------------------------------------
# the undelayed recursion

def test_undelayed_recursion_squares_through_known_values():
    run = simulate_undelayed(Power(1.0, 2.0), 2.0, 4)
    expected = [2.0, 6.0, 42.0, 1806.0, 1806.0 * 1807.0]
    assert len(run.log_states) == 5
    for v, e in zip(run.log_states, expected):
        assert math.exp(v) == pytest.approx(e, rel=1e-9)
    assert not run.truncated


def test_undelayed_recursion_truncates_instead_of_overflowing():
    # squaring doubles the log value: the cap arrives near step 1016
    run = simulate_undelayed(Power(1.0, 2.0), 1e100, 1100)
    assert run.truncated
    assert len(run.log_states) < 1101


def test_undelayed_recursion_requires_superlinear_terms():
    with pytest.raises(DomainError):
        simulate_undelayed(Linear(2.0), 2.0, 5)
    with pytest.raises(DomainError):
        simulate_undelayed(Constant(1.0), 2.0, 5)
    with pytest.raises(DomainError):
        simulate_undelayed(Power(1.0, 2.0), -1.0, 5)
    with pytest.raises(DomainError):
        simulate_undelayed(PowerLog(1.0, 2.0, 1.0), 1.0, 5)   # domain needs x > 1
    simulate_undelayed(LinTimesExpLogPow(1.0, 0.5), 1.0, 3)   # rv1 shapes qualify


# ---------------------------------------------------------------------------
# histories

def test_parse_history_accepts_the_documented_forms():
    assert parse_history("const(2.0)") == ConstantHistory(2.0)
    assert parse_history("2.5") == ConstantHistory(2.5)
    assert parse_history("ramp(1, 2)") == RampHistory(1.0, 2.0)
    assert parse_history(" RAMP(0.5,3) ") == RampHistory(0.5, 3.0)


@pytest.mark.parametrize("text", ["ramp(1)", "blah(1,2)", "const()", "const(-1)",
                                  "ramp(0,2)", ""])
def test_parse_history_rejects_malformed_input(text):
    with pytest.raises(DomainError):
        parse_history(text)


def test_ramp_endpoints_are_exact():
    ramp = RampHistory(0.1, 0.3)
    assert ramp.at(0.0) == 0.1
    assert ramp.at(1.0) == 0.3


# ---------------------------------------------------------------------------
# CSV output

def test_csv_structure_and_round_trip():
    sc = scenario(steps_per_delay=2, horizon=1.0)
    traj = simulate_euler(sc)
    F = ode_time(Constant(2.0), 1.0)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf, functional=F)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,t,log_x,functional,ratio"
    assert len(lines) == 1 + len(traj.log_states)
    for line, n in zip(lines[1:], traj.indices()):
        fields = line.split(",")
        assert len(fields) == 5
        assert int(fields[0]) == n
        assert float(fields[1]) == traj.time(n)
        assert float(fields[2]) == traj.state(n)     # repr round-trips exactly
        if n > 0:
            x = math.exp(traj.state(n))
            assert float(fields[3]) == pytest.approx((x - 1.0) / 2.0, rel=1e-12)
            assert float(fields[4]) == pytest.approx(float(fields[3]) / traj.time(n))
        else:
            assert fields[3] == "" and fields[4] == ""


def test_csv_output_is_deterministic(tmp_path):
    sc = scenario()
    path1 = tmp_path / "a.csv"
    path2 = tmp_path / "b.csv"
    write_trajectory_csv(simulate_euler(sc), path1)
    write_trajectory_csv(simulate_euler(sc), path2)
    assert path1.read_bytes() == path2.read_bytes()


def test_csv_without_functional_leaves_columns_empty():
    buf = io.StringIO()
    write_trajectory_csv(simulate_euler(scenario()), buf)
    for line in buf.getvalue().splitlines()[1:]:
        assert line.endswith(",,")
