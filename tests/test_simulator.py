import io
import math
import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from delaygrowth import simulator
from delaygrowth.coefficients import (
    CoefficientSpec, Constant, ExpLogPow, Linear, Power, PowerLog, Zero,
    LinTimesExpLogPow,
)
from delaygrowth.errors import DomainError, HorizonExceeded
from delaygrowth.functionals import ode_time
from delaygrowth.logdomain import LOG_CAP, log_add, log_scale
from delaygrowth.simulator import (
    MAX_STEPS, WINDOW_MIN_STEPS, ConstantHistory, History, RampHistory, Scenario,
    SimulationError, Trajectory, parse_history, simulate_euler, write_trajectory_csv,
    _step_singly, _step_windows,
)
from oracle import float_function
from undelayed import undelayed_log_states


def scenario(**kw):
    base = dict(f=Zero(), g=Constant(2.0), tau=1.0, steps_per_delay=4,
                history=ConstantHistory(1.0), horizon=2.0)
    base.update(kw)
    return Scenario(**base)


def simulate_direct(scenario: Scenario, cap: float = 1e15) -> Trajectory:
    """The same recursion in plain float arithmetic, stopping at ``cap``.

    An independent route for cross-checking the log-domain stepping on
    ranges where doubles suffice.
    """
    n_delay = scenario.steps_per_delay
    h = scenario.h
    f, g = float_function(scenario.f), float_function(scenario.g)
    xs: list[float] = list(scenario.history_samples())
    truncated = False
    for _ in range(scenario.planned_steps()):
        x = xs[-1] + h * f(xs[-1]) + h * g(xs[-1 - n_delay])
        if math.isnan(x):
            raise SimulationError(f"state became undefined after {len(xs)} samples")
        if x > cap:
            truncated = True
            break
        xs.append(x)
    return Trajectory(scenario=scenario,
                      log_states=tuple(math.log(v) for v in xs),
                      truncated=truncated)


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
    forward = [traj.state(n) for n in range(0, traj.forward_steps + 1)]
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
    assert traj.forward_steps * traj.h < 2000.0
    assert all(v <= LOG_CAP for v in traj.log_states)
    forward = [traj.state(n) for n in range(0, traj.forward_steps + 1)]
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
# both kernels against the reference kernel, and each other

def reference_kernel(scenario: Scenario) -> tuple[np.ndarray, bool]:
    """The Euler step term by term from the logs of the history samples:
    each term through the domain check of ``value_log`` and through
    ``log_scale``, then two ``log_add``.

    ``_step_singly`` and ``_step_windows`` must give its states, its
    truncation and its errors bit for bit.
    """
    n_delay = scenario.steps_per_delay
    h = scenario.h
    f_log, g_log = scenario.f.value_log, scenario.g.value_log
    states = [math.log(v) for v in scenario.history_samples()]
    truncated = False
    for _ in range(scenario.planned_steps()):
        current = states[-1]
        try:
            step = log_add(current, log_scale(f_log(current), h))
            step = log_add(step, log_scale(g_log(states[-1 - n_delay]), h))
        except HorizonExceeded:
            truncated = True
            break
        if math.isnan(step):
            raise SimulationError(f"state became undefined after {len(states)} samples")
        states.append(step)
    return np.array(states), truncated


def run_with(stepper, sc):
    states, truncated = stepper(sc)
    return [v.hex() for v in states.tolist()], truncated


_COEF = st.floats(0.1, 5.0)
# the shapes with an array form, the only ones the window kernel takes
_ARRAY_FORM = st.one_of(
    st.builds(Constant, _COEF),
    st.builds(Power, _COEF, st.floats(0.0, 3.0)),
    st.builds(Linear, _COEF),
)
_CATALOG = st.one_of(
    _ARRAY_FORM,
    st.builds(LinTimesExpLogPow, _COEF, st.floats(0.1, 1.5)),
    st.builds(ExpLogPow, _COEF, st.floats(0.5, 2.5)),
    st.tuples(_COEF, st.floats(0.0, 3.0), st.floats(-2.0, 3.0))
    .filter(lambda p: p[1] > 0 or p[2] >= 0).map(lambda p: PowerLog(*p)),
)
_LEVEL = st.floats(1.01, 1e4)


@st.composite
def zero_f_scenarios(draw, shapes=_CATALOG):
    n = draw(st.integers(1, 4 * WINDOW_MIN_STEPS))     # across the window threshold
    tau = draw(st.sampled_from([0.5, 1.0, 3.0]))
    history = draw(st.one_of(st.builds(ConstantHistory, _LEVEL),
                             st.builds(RampHistory, _LEVEL, _LEVEL)))
    steps = draw(st.integers(1, 25 * n + n - 1))     # often a partial last window
    return Scenario(f=Zero(), g=draw(shapes), tau=tau, steps_per_delay=n,
                    history=history, horizon=steps * tau / n)


# f for the per-step loop: zero, a power up to 1 and x times a power of log x
_F = st.one_of(
    st.just(Zero()),
    st.builds(Power, _COEF, st.floats(0.0, 1.0)),
    st.builds(PowerLog, _COEF, st.just(1.0), st.floats(-2.0, 3.0)),
)


@st.composite
def step_scenarios(draw):
    sc = draw(zero_f_scenarios())
    return replace(sc, f=draw(_F))


# both examples are cut by the cap, after 26 and 1,933 steps
@settings(deadline=None)
@given(step_scenarios())
@example(Scenario(f=Power(1.0, 0.5), g=ExpLogPow(1.0, 2.5), tau=1.0, steps_per_delay=3,
                  history=RampHistory(2.0, 50.0), horizon=40.0))
@example(Scenario(f=PowerLog(2.0, 1.0, 3.0), g=Power(1.0, 3.0), tau=1.0, steps_per_delay=2,
                  history=ConstantHistory(2.0), horizon=1000.0))
def test_step_loop_matches_the_reference_kernel_bit_for_bit(sc):
    assert run_with(_step_singly, sc) == run_with(reference_kernel, sc)


@given(zero_f_scenarios(_ARRAY_FORM))
def test_window_kernel_matches_the_step_loop_bit_for_bit(sc):
    kernel = run_with(_step_windows, sc)
    assert kernel == run_with(_step_singly, sc) == run_with(reference_kernel, sc)
    traj = simulate_euler(sc)
    assert ([v.hex() for v in traj.log_states.tolist()], traj.truncated) == kernel
    assert traj.log_states.dtype == np.float64
    assert all(type(traj.state(n)) is float for n in traj.indices())


@pytest.mark.parametrize("kw", [
    dict(g=Power(1.0, 2.0), history=ConstantHistory(2.0), horizon=2000.0),
    dict(g=Power(1.0, 2.0), steps_per_delay=7, history=RampHistory(1e300, 2.0),
         horizon=2000.0),
    dict(g=Power(1.0, 3.0), steps_per_delay=8, horizon=1000.0),
    dict(g=Power(1.0, 3.0), steps_per_delay=3, horizon=1000.0),
])
def test_window_kernel_truncates_where_the_step_loop_does(kw):
    sc = scenario(**kw)
    kernel = run_with(_step_windows, sc)
    assert kernel[1]
    assert kernel == run_with(_step_singly, sc) == run_with(reference_kernel, sc)


@pytest.mark.parametrize("f,g,n,kernel", [
    (Zero(), Power(1.0, 2.0), WINDOW_MIN_STEPS, "_step_windows"),
    (Zero(), Power(1.0, 2.0), WINDOW_MIN_STEPS - 1, "_step_singly"),
    (Zero(), LinTimesExpLogPow(1.0, 0.5), WINDOW_MIN_STEPS, "_step_singly"),
    (Zero(), LinTimesExpLogPow(1.0, 0.5), WINDOW_MIN_STEPS - 1, "_step_singly"),
    (Power(1.0, 0.5), Power(1.0, 2.0), WINDOW_MIN_STEPS, "_step_singly"),
], ids=["affine-at-threshold", "affine-below", "no-array-form-at-threshold",
        "no-array-form-below", "f-nonzero"])
def test_only_f_zero_an_array_form_g_and_enough_steps_take_the_window_kernel(
        monkeypatch, f, g, n, kernel):
    taken = []
    for stepper in (_step_singly, _step_windows):
        def spy(sc, stepper=stepper):
            taken.append(stepper.__name__)
            return stepper(sc)
        monkeypatch.setattr(simulator, stepper.__name__, spy)
    simulate_euler(scenario(f=f, g=g, steps_per_delay=n, horizon=3.0))
    assert taken == [kernel]


@dataclass(frozen=True)
class UndefinedPast(CoefficientSpec):
    """log F(x) = log x up to ``bound``, nan beyond it."""

    bound: float

    def log_term(self, u: float) -> float:
        return u if u <= self.bound else math.nan

    def log_terms(self, us: np.ndarray) -> np.ndarray:
        return np.where(us <= self.bound, us, math.nan)


@pytest.mark.parametrize("n", [1, 3, 4, 9, WINDOW_MIN_STEPS])
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


@dataclass(frozen=True)
class SwitchPast(CoefficientSpec):
    """log F(x) = log x up to ``bound``, ``beyond`` past it."""

    bound: float
    beyond: float

    def log_term(self, u: float) -> float:
        return u if u <= self.bound else self.beyond


def switching_at(n: int, step: int, f_beyond: float, g_beyond: float) -> Scenario:
    """A run with f = g = x whose step to index ``step`` reads f's term
    ``f_beyond`` at the current state and g's ``g_beyond`` at the delayed
    one, each for the first time."""
    plain = scenario(f=SwitchPast(math.inf, math.nan), g=SwitchPast(math.inf, math.nan),
                     steps_per_delay=n, horizon=20.0)
    traj = simulate_euler(plain)
    states = dict(zip(traj.indices(), traj.log_states.tolist()))

    def between(k):
        return 0.5 * (states[k - 1] + states[k])
    return replace(plain, f=SwitchPast(between(step - 1), f_beyond),
                   g=SwitchPast(between(step - 1 - n), g_beyond))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_a_term_past_the_cap_truncates_before_a_nan_term_fails(n):
    # f's term is NaN and g's is past the cap at the same step: the sum is
    # NaN, but stepping each term through log_scale truncated first
    step = n + 5
    sc = switching_at(n, step, math.nan, 2.0 * LOG_CAP)
    states, truncated = run_with(_step_singly, sc)
    assert truncated and len(states) == n + step
    assert (states, truncated) == run_with(reference_kernel, sc)
    traj = simulate_euler(sc)
    assert traj.truncated and traj.forward_steps == step - 1


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_a_nan_term_alone_fails_as_the_reference_does(n):
    step = n + 5
    sc = replace(switching_at(n, step, math.nan, math.nan), g=SwitchPast(math.inf, math.nan))
    messages = []
    for stepper in (_step_singly, reference_kernel):
        with pytest.raises(SimulationError) as err:
            run_with(stepper, sc)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == f"state became undefined after {n + step} samples"


# ---------------------------------------------------------------------------
# the discrete comparison principle, on both kernels: where g is
# nondecreasing, a larger history or a larger coefficient of g never gives
# a smaller state

_GAP = st.floats(-15.0, -1.0).map(lambda e: 10.0 ** e)


@settings(deadline=None)
@given(g=_CATALOG, f=st.sampled_from([Zero(), Power(1.0, 0.5)]),
       n=st.sampled_from([1, 2, 4, 7, 16]), levels=st.tuples(_LEVEL, _LEVEL),
       gaps=st.tuples(_GAP, _GAP, _GAP))
def test_a_larger_history_or_delayed_term_never_gives_a_smaller_state(g, f, n, levels, gaps):
    floor = max(g.monotone_from, 1.0)
    assume(floor < 1e100)
    start, end = (floor * v for v in levels)
    low = Scenario(f=f, g=g, tau=1.0, steps_per_delay=n,
                   history=RampHistory(start, end), horizon=15.0)
    above = [replace(low, history=RampHistory(start * (1.0 + gaps[0]), end * (1.0 + gaps[1]))),
             replace(low, g=replace(g, coefficient=g.coefficient * (1.0 + gaps[2])))]
    lower = simulate_euler(low).log_states
    for high in above:
        upper = simulate_euler(high).log_states
        both = min(len(lower), len(upper))
        assert np.all(lower[:both] <= upper[:both])


def window_peak(sc):
    """The window kernel's states, truncation and peak traced memory."""
    tracemalloc.start()
    try:
        states, truncated = _step_windows(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return states, truncated, peak


def test_window_memory_follows_the_steps_taken():
    # log x grows about tenfold per delay window, so the cap cuts 8e6 planned
    # steps after 2,782: a buffer sized to the horizon would take 64 MB
    sc = scenario(g=Power(1.0, 10.0), steps_per_delay=8, horizon=1e6)
    assert sc.planned_steps() == 8_000_000
    states, truncated, peak = window_peak(sc)
    assert truncated
    assert len(states) == 2791
    assert peak < 1_000_000


def test_window_memory_follows_the_steps_taken_on_a_slower_run():
    # log x about doubles per delay window, so the cap cuts 8e6 planned steps
    # after 9,216: the state buffer grows further, but never towards the horizon
    sc = scenario(g=Power(1.0, 2.0), steps_per_delay=8, history=ConstantHistory(2.0),
                  horizon=1e6)
    states, truncated, peak = window_peak(sc)
    assert truncated
    assert len(states) == 9225
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
    assert min(sc.history_samples()) == 0.5
    with pytest.raises(DomainError):
        scenario(f=PowerLog(1.0, 1.0, 1.0), g=Linear(1.0))


def test_a_scenario_of_exactly_the_state_budget_constructs():
    # constructed only: running it would take the per-step loop, whose list
    # of 2^26 + 2 states takes about 2 GiB
    sc = scenario(steps_per_delay=1, horizon=float(MAX_STEPS))
    assert sc.planned_steps() == MAX_STEPS == 2**26
    with pytest.raises(DomainError, match="a run counts at most 67108864"):
        scenario(steps_per_delay=1, horizon=float(MAX_STEPS + 1))


def test_steps_per_delay_past_the_budget_raise_before_any_sample_is_built():
    # four planned steps, but 2^40 + 1 history samples: about 35 TB as floats
    tracemalloc.start()
    began = time.perf_counter()
    try:
        with pytest.raises(DomainError, match="^steps per delay 1099511627776 exceeds"):
            scenario(steps_per_delay=2**40, horizon=4.0 / 2**40)
        elapsed = time.perf_counter() - began
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1_000_000


@given(zero_f_scenarios())
def test_the_scenario_keeps_the_logs_of_its_history_samples(sc):
    assert ([v.hex() for v in sc.log_history.tolist()]
            == [math.log(v).hex() for v in sc.history_samples()])
    assert sc.log_history.dtype == np.float64
    with pytest.raises(ValueError):
        sc.log_history[0] = 1.0
    # an attribute, not a field: two equal scenarios compare, hash and print alike
    twin = replace(sc)
    assert twin.log_history is not sc.log_history
    assert twin == sc and hash(twin) == hash(sc) and repr(twin) == repr(sc)
    assert "log_history" not in repr(sc)


@pytest.mark.parametrize("history", [ConstantHistory(1.0), RampHistory(1.0, 2.0)],
                         ids=["const", "ramp"])
def test_a_long_history_is_sampled_and_logged_once(history):
    # four forward steps after 2^20 + 1 history samples: the scenario keeps
    # their logs as one float64 array (8.4 MB) and the window kernel adds one
    # state buffer (8.4 MB); no list of the samples or of their logs is built
    n = 2**20
    tracemalloc.start()
    try:
        sc = scenario(g=Power(1.0, 2.0), steps_per_delay=n, history=history, horizon=4.0 / n)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        traj = simulate_euler(sc)
        _, ran = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.forward_steps == 4 and not traj.truncated
    assert built < 9_000_000
    assert ran < 20_000_000


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
        traj.state(traj.forward_steps + 1)
    with pytest.raises(DomainError):
        traj.state(traj.n_start - 1)


def interpolate(trajectory: Trajectory, t: float) -> float:
    """log x at an off-grid time, linear in the log between neighbors."""
    h = trajectory.h
    position = t / h
    lo = math.floor(position)
    if lo < trajectory.n_start or lo > trajectory.forward_steps:
        raise DomainError(f"time {t!r} outside the simulated range")
    if lo == trajectory.forward_steps:
        if position > trajectory.forward_steps:
            raise DomainError(f"time {t!r} outside the simulated range")
        return trajectory.state(trajectory.forward_steps)
    frac = position - lo
    a, b = trajectory.state(lo), trajectory.state(lo + 1)
    return a * (1.0 - frac) + b * frac


def test_interpolation_is_log_linear():
    traj = simulate_euler(scenario())
    mid = interpolate(traj, 0.625)          # halfway between n=2 and n=3
    assert mid == pytest.approx(0.5 * (traj.state(2) + traj.state(3)))
    assert interpolate(traj, traj.forward_steps * traj.h) == traj.state(traj.forward_steps)
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


def test_fingerprint_moves_with_the_last_bit_of_any_state_and_with_the_flag():
    traj = simulate_euler(scenario())
    base = traj.fingerprint()
    for k in (0, len(traj.log_states) // 2, len(traj.log_states) - 1):
        states = traj.log_states.copy()
        states.view(np.uint64)[k] ^= 1
        flipped = Trajectory(scenario=traj.scenario, log_states=states, truncated=False)
        assert flipped.fingerprint() != base
    flagged = Trajectory(scenario=traj.scenario, log_states=traj.log_states, truncated=True)
    assert flagged.fingerprint() != base


def test_a_tuple_a_list_and_an_array_of_states_fingerprint_alike():
    states = [math.log(v) for v in (1.0, 1.5, 2.25, 1e300)] + [5e-324, -0.0, 700.5]
    sc = scenario()
    prints = {Trajectory(scenario=sc, log_states=given_as, truncated=False).fingerprint()
              for given_as in (tuple(states), states, np.array(states))}
    assert len(prints) == 1


def test_trajectory_states_are_a_read_only_float_array():
    traj = simulate_euler(scenario())
    assert traj.log_states.dtype == np.float64
    with pytest.raises(ValueError):
        traj.log_states[0] = 1.0
    built = Trajectory(scenario=scenario(), log_states=np.zeros(3), truncated=False)
    with pytest.raises(ValueError):
        built.log_states[0] = 1.0


# ---------------------------------------------------------------------------
# the undelayed recursion

def test_undelayed_recursion_squares_through_known_values():
    states, truncated = undelayed_log_states(Power(1.0, 2.0), 2.0, 4)
    expected = [2.0, 6.0, 42.0, 1806.0, 1806.0 * 1807.0]
    assert len(states) == 5
    for v, e in zip(states, expected):
        assert math.exp(v) == pytest.approx(e, rel=1e-9)
    assert not truncated


def test_undelayed_recursion_truncates_instead_of_overflowing():
    # squaring doubles the log value: the cap arrives near step 1016
    states, truncated = undelayed_log_states(Power(1.0, 2.0), 1e100, 1100)
    assert truncated
    assert len(states) < 1101


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


@pytest.mark.parametrize("text,level", [("-1", "-1.0"), ("0", "0.0"), ("nan", "nan"),
                                        ("1e400", "inf")])
def test_a_bare_number_history_reports_its_level(text, level):
    with pytest.raises(DomainError) as err:
        parse_history(text)
    assert str(err.value) == f"history level must be positive and finite, got {level}"


positive_finite = st.floats(min_value=5e-324, allow_infinity=False)


@given(st.one_of(st.builds(ConstantHistory, positive_finite),
                 st.builds(RampHistory, positive_finite, positive_finite)))
def test_history_text_round_trips(history):
    # the CLI echoes str(history), so its text must parse back to the same floats
    assert parse_history(str(history)) == history


@dataclass(frozen=True)
class StepHistory(History):
    level: float

    def at(self, fraction: float) -> float:
        return self.level


def test_a_class_outside_the_name_tables_prints_its_repr():
    # only a tabled name is a parsable text; anything else must not pose as one
    assert str(StepHistory(2.0)) == "StepHistory(level=2.0)"
    assert str(UndefinedPast(2.0)) == "UndefinedPast(bound=2.0)"


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
    for path in (path1, path2):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            write_trajectory_csv(simulate_euler(sc), fh)
    assert path1.read_bytes() == path2.read_bytes()


def test_csv_without_functional_leaves_columns_empty():
    buf = io.StringIO()
    write_trajectory_csv(simulate_euler(scenario()), buf)
    for line in buf.getvalue().splitlines()[1:]:
        assert line.endswith(",,")
