import math
import pathlib

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from delaygrowth.analysis import (
    EstimateStatus, EstimationError, Observable, Prediction, PredictionRefused,
    RateEstimate, default_functional, derive_envelope_params, envelope_check,
    envelope_margins, estimate_rate, format_prediction, format_verification,
    predict, solve_char_eq, sweep_h, verify_scenario,
)
from delaygrowth.coefficients import (
    Constant, ExpLogPow, Linear, LinTimesExpLogPow, Power, PowerLog, Zero,
    parse_coefficient,
)
from delaygrowth.cli import build_scenario, load_config
from delaygrowth.errors import DomainError, HorizonExceeded
from delaygrowth.functionals import evaluate as evaluate_fn
from delaygrowth.functionals import gain_time, invert, ode_time
from delaygrowth.simulator import ConstantHistory, Scenario, Trajectory, simulate_euler
from undelayed import undelayed_log_states

ROOT = pathlib.Path(__file__).resolve().parent.parent


def scenario(**kw):
    base = dict(f=Zero(), g=Constant(2.0), tau=1.0, steps_per_delay=4,
                history=ConstantHistory(1.0), horizon=60.0)
    base.update(kw)
    return Scenario(**base)


def synthetic_trajectory(fn, count=300, steps_per_delay=1, tau=1.0):
    # log_states[0] sits at n = -steps_per_delay (oldest history sample)
    states = tuple(float(fn(n)) for n in range(-steps_per_delay, count + 1))
    sc = Scenario(f=Zero(), g=Constant(1.0), tau=tau,
                  steps_per_delay=steps_per_delay, history=ConstantHistory(1.0),
                  horizon=count * tau / steps_per_delay)
    return Trajectory(scenario=sc, log_states=states, truncated=False)


# ---------------------------------------------------------------------------
# the characteristic equation

def test_characteristic_root_unit_case():
    # independent check: scipy.special.lambertw(1) = 0.5671432904097838
    assert solve_char_eq(1.0, 1.0) == pytest.approx(0.5671432904097838, abs=1e-12)


def test_characteristic_root_satisfies_its_equation():
    for slope, tau in [(0.5, 1.0), (2.0, 1.0), (1.0, 3.0), (10.0, 0.2),
                       (1e100, 1.0), (1e308, 1.0)]:
        lam = solve_char_eq(slope, tau)
        assert lam == pytest.approx(slope * math.exp(-lam * tau), abs=1e-10)
        assert 0.0 < lam <= slope


def test_characteristic_root_spot_values():
    # slope e with unit delay: 1 = e * exp(-1) exactly
    assert solve_char_eq(math.e, 1.0) == pytest.approx(1.0, abs=1e-12)
    # vanishing delay: the root approaches the slope
    assert solve_char_eq(1.0, 1e-9) == pytest.approx(1.0, abs=1e-8)


def test_characteristic_root_is_bracketed_by_sign_change():
    lam = solve_char_eq(2.0, 0.7)
    resid = lambda v: v - 2.0 * math.exp(-v * 0.7)
    assert resid(lam - 1e-6) < 0.0 < resid(lam + 1e-6)
    assert resid(0.0) < 0.0


@settings(deadline=None)
@given(log_slope=st.floats(min_value=-300.0, max_value=300.0),
       log_tau=st.floats(min_value=-300.0, max_value=300.0))
@example(log_slope=300.0, log_tau=300.0)
def test_characteristic_root_matches_lambert_w(log_slope, log_tau):
    # lambda = W(slope * tau) / tau, to 50 digits; exp(-lambda tau)
    # underflows during the bisection once lambda tau passes about 708
    slope, tau = 10.0 ** log_slope, 10.0 ** log_tau
    with mpmath.workdps(50):
        want = float(mpmath.lambertw(mpmath.mpf(slope) * mpmath.mpf(tau)).real / tau)
    assert abs(solve_char_eq(slope, tau) - want) <= 2 * math.ulp(want)


def test_characteristic_root_validation():
    with pytest.raises(DomainError):
        solve_char_eq(0.0, 1.0)
    with pytest.raises(DomainError):
        solve_char_eq(1.0, -1.0)


# ---------------------------------------------------------------------------
# prediction

def test_sublinear_prediction():
    pred = predict(scenario())
    assert pred.regime.kind.value == "sublinear-rv"
    assert pred.observable is Observable.FUNCTIONAL_OVER_T
    assert pred.continuous_rate == 1.0
    assert pred.discrete_rate(0.25) == 1.0
    assert pred.functional == ode_time(Constant(2.0), 1.0)
    assert len(pred.checks) == 1 and pred.checks[0].passed
    assert "vanishes identically" in pred.checks[0].condition


def test_linear_prediction():
    pred = predict(scenario(f=Power(1.0, 0.5), g=Linear(1.0)))
    assert pred.regime.kind.value == "linear-rv"
    assert pred.observable is Observable.LOG_OVER_T
    assert pred.continuous_rate == pytest.approx(0.5671432904097838, abs=1e-10)
    assert pred.discrete_rate(0.25) is None
    assert pred.functional is None


def test_rv1_prediction_carries_the_secondary_form():
    g = LinTimesExpLogPow(1.0, 0.5)
    pred = predict(scenario(f=Power(1.0, 0.5), g=g))
    assert pred.regime.kind.value == "rv1-superlinear"
    assert pred.observable is Observable.FUNCTIONAL_OVER_T
    assert pred.continuous_rate == pytest.approx(1.0)
    assert pred.discrete_rate(0.25) == pytest.approx(1.0 / 1.25)
    assert pred.functional == gain_time(g)
    assert len(pred.checks) == 2
    assert any("log x(t) grows like" in note for note in pred.notes)


def test_rv1_prediction_with_a_shape_vanishing_at_one():
    pred = predict(scenario(g=PowerLog(1.0, 1.0, 2.0),
                            history=ConstantHistory(2.0)))
    assert pred.regime.kind.value == "rv1-superlinear"
    assert pred.functional is None
    assert any("undefined" in note for note in pred.notes)


def test_poly_prediction():
    pred = predict(scenario(g=Power(1.0, 2.0), history=ConstantHistory(2.0)))
    assert pred.observable is Observable.LOGLOG_OVER_T
    assert pred.continuous_rate == pytest.approx(math.log(2.0))
    assert pred.discrete_rate(0.25) == pytest.approx(math.log(2.0) / 1.25)
    assert len(pred.checks) == 2 and all(c.passed for c in pred.checks)


def test_faster_than_poly_prediction():
    pred = predict(scenario(f=Linear(3.0), g=ExpLogPow(1.0, 2.0),
                            history=ConstantHistory(3.0)))
    assert pred.observable is Observable.LOGLOGLOG_OVER_T
    assert pred.continuous_rate == pytest.approx(math.log(2.0))
    assert pred.discrete_rate(0.25) is None


@pytest.mark.parametrize("kw,fragment", [
    (dict(f=Linear(1.0)), "f(x)/g(x)"),                          # f outruns a flat g
    (dict(f=Power(1.0, 0.9), g=Power(1.0, 0.5)), "f(x)/g(x)"),
    (dict(f=Linear(0.5), g=Linear(1.0)), "f(x)/x"),              # finite, not zero
    (dict(f=Power(2.0, 2.0), g=Power(1.0, 2.0),
          history=ConstantHistory(2.0)), "f(x)/x"),
])
def test_prediction_refused_names_the_failed_condition(kw, fragment):
    with pytest.raises(PredictionRefused) as err:
        predict(scenario(**kw))
    assert fragment in str(err.value)


def test_prediction_refused_for_uncovered_shapes():
    with pytest.raises(PredictionRefused):
        predict(scenario(g=ExpLogPow(1.0, 0.5), history=ConstantHistory(2.0)))


def test_default_functional_mirrors_the_prediction():
    assert default_functional(Constant(2.0)) == ode_time(Constant(2.0), 1.0)
    g = LinTimesExpLogPow(1.0, 0.5)
    assert default_functional(g) == gain_time(g)
    assert default_functional(Linear(1.0)) is None
    assert default_functional(PowerLog(1.0, 1.0, 2.0)) is None


def test_discrete_rate_validates_step():
    pred = predict(scenario())
    with pytest.raises(DomainError):
        pred.discrete_rate(0.0)
    with pytest.raises(DomainError):
        pred.discrete_rate(2.0)     # larger than the delay


def test_discrete_rate_approaches_the_continuous_rate():
    cases = [
        scenario(),
        scenario(g=LinTimesExpLogPow(1.0, 0.5), history=ConstantHistory(2.0)),
        scenario(g=Power(1.0, 2.0), history=ConstantHistory(2.0)),
    ]
    for sc in cases:
        pred = predict(sc)
        assert pred.discrete_rate(1e-9) == pytest.approx(pred.continuous_rate,
                                                         rel=1e-6)


# ---------------------------------------------------------------------------
# golden prediction text: every regime with f zero and nonzero, the RV1
# shapes without a window-count functional, and the refusals.  A changed
# rate law, probe condition, note or message shows up here, which the
# config corpus alone would not catch (it never runs ``predict`` and has no
# faster-than-polynomial prediction).

PREDICTION_TEXT = [
    (("zero", "power(1,0.5)", 1.0, 4), [
        "regime: sublinear-rv (index 0.5)",
        "  check f(x)/g(x) -> 0 (f vanishes identically): zero [ok]",
        "observable: functional-over-t",
        "continuous rate: 1.0",
        "grid rate at h=0.25: 1.0",
        "functional: ode-time[power(1.0,0.5), lower=1]",
    ]),
    (("power(1,0.25)", "power(1,0.5)", 1.0, 4), [
        "regime: sublinear-rv (index 0.5)",
        "  check f(x)/g(x) -> 0: zero [ok]",
        "observable: functional-over-t",
        "continuous rate: 1.0",
        "grid rate at h=0.25: 1.0",
        "functional: ode-time[power(1.0,0.5), lower=1]",
    ]),
    (("zero", "const(2)", 1.0, 4), [
        "regime: sublinear-rv (index 0.0)",
        "  check f(x)/g(x) -> 0 (f vanishes identically): zero [ok]",
        "observable: functional-over-t",
        "continuous rate: 1.0",
        "grid rate at h=0.25: 1.0",
        "functional: ode-time[const(2.0), lower=1]",
    ]),
    (("zero", "linear(1)", 1.0, 16), [
        "regime: linear-rv (index 1.0)",
        "  check f(x)/x -> 0 (f vanishes identically): zero [ok]",
        "observable: log-over-t",
        "continuous rate: 0.5671432904097838",
        "grid rate at h=0.0625: no exact value in this regime",
    ]),
    (("power(1,0.5)", "linear(2)", 2.0, 8), [
        "regime: linear-rv (index 2.0)",
        "  check f(x)/x -> 0: zero [ok]",
        "observable: log-over-t",
        "continuous rate: 0.6010839365985214",
        "grid rate at h=0.25: no exact value in this regime",
    ]),
    (("zero", "xexplogpow(1,0.5)", 1.0, 4), [
        "regime: rv1-superlinear",
        "  check f(x)/x -> 0 (f vanishes identically): zero [ok]",
        "  check f(x)/(x log(g(x)/x)) -> 0 (f vanishes identically): zero [ok]",
        "observable: functional-over-t",
        "continuous rate: 1.0",
        "grid rate at h=0.25: 0.8",
        "functional: gain-time[xexplogpow(1.0,0.5), lower=1]",
        "note: equivalently, log x(t) grows like ((1-a) t / tau)^(1/(1-a)) with a = "
        "0.5, up to lower order terms",
    ]),
    (("power(1,0.5)", "xexplogpow(1,0.5)", 1.0, 4), [
        "regime: rv1-superlinear",
        "  check f(x)/x -> 0: zero [ok]",
        "  check f(x)/(x log(g(x)/x)) -> 0: zero [ok]",
        "observable: functional-over-t",
        "continuous rate: 1.0",
        "grid rate at h=0.25: 0.8",
        "functional: gain-time[xexplogpow(1.0,0.5), lower=1]",
        "note: equivalently, log x(t) grows like ((1-a) t / tau)^(1/(1-a)) with a = "
        "0.5, up to lower order terms",
    ]),
    (("zero", "powerlog(1,1,2)", 1.0, 4), [
        "regime: rv1-superlinear",
        "  check f(x)/x -> 0 (f vanishes identically): zero [ok]",
        "  check f(x)/(x log(g(x)/x)) -> 0 (f vanishes identically): zero [ok]",
        "observable: functional-over-t",
        "continuous rate: 1.0",
        "grid rate at h=0.25: 0.8",
        "note: the window-count functional from 1 is undefined for "
        "powerlog(1.0,1.0,2.0) (it vanishes there); only the rate itself is predicted",
    ]),
    (("power(1,0.5)", "powerlog(1,1,0.5)", 2.0, 4), [
        "regime: rv1-superlinear",
        "  check f(x)/x -> 0: zero [ok]",
        "  check f(x)/(x log(g(x)/x)) -> 0: zero [ok]",
        "observable: functional-over-t",
        "continuous rate: 0.5",
        "grid rate at h=0.5: 0.4",
        "note: the window-count functional from 1 is undefined for "
        "powerlog(1.0,1.0,0.5) (it vanishes there); only the rate itself is predicted",
    ]),
    (("zero", "power(1,2)", 1.0, 4), [
        "regime: poly-superlinear (index 2.0)",
        "  check f(x)/x -> 0 (f vanishes identically): zero [ok]",
        "  check f(x)/(x log x) -> 0 (f vanishes identically): zero [ok]",
        "observable: loglog-over-t",
        "continuous rate: 0.6931471805599453",
        "grid rate at h=0.25: 0.5545177444479562",
    ]),
    (("power(1,0.5)", "power(1,2)", 1.0, 4), [
        "regime: poly-superlinear (index 2.0)",
        "  check f(x)/x -> 0: zero [ok]",
        "  check f(x)/(x log x) -> 0: zero [ok]",
        "observable: loglog-over-t",
        "continuous rate: 0.6931471805599453",
        "grid rate at h=0.25: 0.5545177444479562",
    ]),
    (("zero", "powerlog(1,3,1)", 2.0, 4), [
        "regime: poly-superlinear (index 3.0)",
        "  check f(x)/x -> 0 (f vanishes identically): zero [ok]",
        "  check f(x)/(x log x) -> 0 (f vanishes identically): zero [ok]",
        "observable: loglog-over-t",
        "continuous rate: 0.5493061443340549",
        "grid rate at h=0.5: 0.4394449154672439",
    ]),
    (("zero", "explogpow(1,2)", 1.0, 8), [
        "regime: faster-than-poly (index 2.0)",
        "  check f(x)/(x log x) -> 0 (f vanishes identically): zero [ok]",
        "observable: logloglog-over-t",
        "continuous rate: 0.6931471805599453",
        "grid rate at h=0.125: no exact value in this regime",
    ]),
    (("power(1,0.5)", "explogpow(1,2)", 1.0, 8), [
        "regime: faster-than-poly (index 2.0)",
        "  check f(x)/(x log x) -> 0: zero [ok]",
        "observable: logloglog-over-t",
        "continuous rate: 0.6931471805599453",
        "grid rate at h=0.125: no exact value in this regime",
    ]),
    (("linear(1)", "explogpow(1,1.5)", 0.5, 2), [
        "regime: faster-than-poly (index 1.5)",
        "  check f(x)/(x log x) -> 0: zero [ok]",
        "observable: logloglog-over-t",
        "continuous rate: 0.8109302162163288",
        "grid rate at h=0.25: no exact value in this regime",
    ]),
    (("zero", "explogpow(1,0.5)", 1.0, 4), [
        "refused: no rate law covers the delayed term explogpow(1.0,0.5)",
    ]),
    (("linear(1)", "power(1,0.5)", 1.0, 4), [
        "refused: dominance hypothesis failed: f(x)/g(x) -> 0 came out infinite",
    ]),
    (("linear(1)", "power(1,2)", 1.0, 4), [
        "refused: dominance hypothesis failed: f(x)/x -> 0 came out finite (1.0)",
    ]),
    (("powerlog(1,1,2)", "power(1,2)", 1.0, 4), [
        "refused: dominance hypothesis failed: f(x)/x -> 0 came out infinite; "
        "f(x)/(x log x) -> 0 came out infinite",
    ]),
    (("linear(1)", "xexplogpow(1,0.5)", 1.0, 4), [
        "refused: dominance hypothesis failed: f(x)/x -> 0 came out finite (1.0); "
        "f(x)/(x log(g(x)/x)) -> 0 came out inconclusive",
    ]),
    (("linear(1)", "linear(1)", 1.0, 4), [
        "refused: dominance hypothesis failed: f(x)/x -> 0 came out finite (1.0)",
    ]),
]


def golden_scenario(f, g, tau, steps_per_delay):
    return Scenario(f=parse_coefficient(f), g=parse_coefficient(g), tau=tau,
                    steps_per_delay=steps_per_delay, history=ConstantHistory(2.0),
                    horizon=10.0)


@pytest.mark.parametrize("case,lines", PREDICTION_TEXT,
                         ids=[f"{f}-{g}-tau{tau:g}-N{n}" for (f, g, tau, n), _ in PREDICTION_TEXT])
def test_prediction_text_matches_the_golden_record(case, lines):
    sc = golden_scenario(*case)
    try:
        text = format_prediction(predict(sc), sc.h)
    except PredictionRefused as exc:
        text = f"refused: {exc}"
    assert text == "\n".join(lines)


# the envelope's comparison functional per regime, and where it starts
ENVELOPE_GOLDEN = [
    ("power(1,0.5)", "ode-time[power(1.0,0.5), lower=2.71828]",
     "0x1.270ad78819b1ep+8", "0x1.4000be6a00000p+3"),
    ("linear(1)", "ode-time[linear(1.0), lower=2.71828, scale=0.567143]",
     "0x1.15e81a30c9ee3p+4", "0x1.4000be6800000p+3"),
    ("xexplogpow(1,0.5)", "ode-time[powerlog(1.0,1.0,0.5), lower=2.71828]",
     "0x1.74c5fc1afee09p+2", "0x1.4000be7000000p+3"),
    ("power(1,2)", "ode-time[powerlog(1.0,1.0,1.0), lower=2.71828, scale=0.693147]",
     "0x1.349aaf3cbddcep+2", "0x1.4000be6000000p+3"),
    ("explogpow(1,2)", "ode-time[nestedlog(3), lower=2.71828, scale=0.693147]",
     "0x1.250c109f7c9ecp+2", "0x1.4000be8000000p+3"),
]


@pytest.mark.parametrize("g,functional,offset,floor_log", ENVELOPE_GOLDEN)
def test_envelope_comparison_scale_per_regime(g, functional, offset, floor_log):
    params = derive_envelope_params(golden_scenario("zero", g, 1.0, 4), 0.5)
    assert params.functional.describe() == functional
    assert (params.offset.hex(), params.floor_log.hex()) == (offset, floor_log)
    assert (params.f_scale, params.g_scale) == (0.0, math.exp(10.0))


# ---------------------------------------------------------------------------
# rate estimation on synthetic trajectories

def test_estimate_converges_on_exact_ratios():
    traj = synthetic_trajectory(lambda n: 0.7 * n)
    est = estimate_rate(traj, Observable.LOG_OVER_T)
    assert est.status is EstimateStatus.CONVERGED
    assert est.point == pytest.approx(0.7)
    assert est.dispersion == 0.0
    assert est.warmup == 100
    assert est.tail == 50


def test_estimate_flags_a_monotone_trend():
    traj = synthetic_trajectory(lambda n: n + 300.0 if n else 0.0)
    est = estimate_rate(traj, Observable.LOG_OVER_T)
    assert est.status is EstimateStatus.TRENDING
    assert est.point > 1.0


def test_estimate_flags_oscillation():
    traj = synthetic_trajectory(lambda n: n * (1.0 + 0.3 * (-1) ** n))
    est = estimate_rate(traj, Observable.LOG_OVER_T)
    assert est.status is EstimateStatus.INCONCLUSIVE


def test_estimate_converges_through_a_slow_transient():
    # ratios 0.8 + 3/n: the tail of a long run pins the limit tightly
    traj = synthetic_trajectory(lambda n: 0.8 * n + 3.0, count=10000)
    est = estimate_rate(traj, Observable.LOG_OVER_T)
    assert est.status is EstimateStatus.CONVERGED
    assert abs(est.point - 0.8) < 0.002


def test_estimate_accepts_an_explicit_tolerance():
    traj = synthetic_trajectory(lambda n: n + 300.0 if n else 0.0)
    est = estimate_rate(traj, Observable.LOG_OVER_T, tolerance=10.0)
    assert est.status is EstimateStatus.CONVERGED


def test_estimate_needs_enough_samples_past_warmup():
    traj = synthetic_trajectory(lambda n: 0.7 * n, count=150)
    with pytest.raises(EstimationError):
        estimate_rate(traj, Observable.LOG_OVER_T)
    # warmup scales with the number of steps per delay
    traj20 = synthetic_trajectory(lambda n: 0.7 * n, count=250,
                                  steps_per_delay=20, tau=20.0)
    with pytest.raises(EstimationError):
        estimate_rate(traj20, Observable.LOG_OVER_T)


def test_estimate_of_iterated_log_observables():
    traj = synthetic_trajectory(lambda n: math.exp(0.8 * n))
    est = estimate_rate(traj, Observable.LOGLOG_OVER_T)
    assert est.status is EstimateStatus.CONVERGED
    assert est.point == pytest.approx(0.8)
    traj3 = synthetic_trajectory(lambda n: math.exp(math.exp(0.02 * n)))
    est3 = estimate_rate(traj3, Observable.LOGLOGLOG_OVER_T)
    assert est3.point == pytest.approx(0.02)


def test_estimate_functional_observable_exactly():
    # constant delayed term on a unit grid: x_n = 1 + 2n, F = (x-1)/2 = n
    sc = Scenario(f=Zero(), g=Constant(2.0), tau=1.0, steps_per_delay=1,
                  history=ConstantHistory(1.0), horizon=250.0)
    traj = simulate_euler(sc)
    est = estimate_rate(traj, Observable.FUNCTIONAL_OVER_T,
                        ode_time(Constant(2.0), 1.0))
    assert est.status is EstimateStatus.CONVERGED
    assert est.point == pytest.approx(1.0, rel=1e-9)


def test_functional_observable_requires_a_functional():
    traj = synthetic_trajectory(lambda n: 0.7 * n)
    with pytest.raises(DomainError):
        estimate_rate(traj, Observable.FUNCTIONAL_OVER_T)


# ---------------------------------------------------------------------------
# end-to-end verification

def test_sublinear_estimates_are_grid_independent():
    # the rate is 1 on every grid, so refining h barely moves the estimate
    coarse = verify_scenario(scenario(g=Power(1.0, 0.5), steps_per_delay=2,
                                      horizon=300.0))
    fine = verify_scenario(scenario(g=Power(1.0, 0.5), steps_per_delay=8,
                                    horizon=300.0))
    assert abs(coarse.estimate.point - fine.estimate.point) < 0.02


def test_undelayed_window_count_for_a_near_linear_shape():
    # y <- y + y exp(sqrt(log y)) from 2: here the window count G(y_n)
    # really does advance by one per step (frozen from a direct run)
    g = LinTimesExpLogPow(1.0, 0.5)
    states, _ = undelayed_log_states(g, 2.0, 60)
    counter = gain_time(g)
    ratios = [evaluate_fn(counter, states[n]) / n for n in range(40, 61)]
    assert min(ratios) > 0.98 and max(ratios) < 1.02
    assert ratios[0] == pytest.approx(0.981978, abs=1e-4)
    assert ratios[-1] == pytest.approx(0.984681, abs=1e-4)


def test_verify_sublinear_scenario():
    result = verify_scenario(scenario(steps_per_delay=10, horizon=200.0))
    assert result.passed
    assert result.target == 1.0
    assert result.estimate.status is EstimateStatus.CONVERGED
    assert abs(result.estimate.point - 1.0) < 0.05
    assert result.slack == 0.0


def test_verify_linear_scenario_uses_the_slack():
    result = verify_scenario(scenario(g=Linear(1.0), steps_per_delay=16,
                                      horizon=40.0))
    lam = 0.5671432904097838
    assert result.target == pytest.approx(lam, abs=1e-10)
    assert result.slack == pytest.approx(3.0 * (1.0 / 16.0) * lam * lam)
    assert result.passed


def test_verify_refuses_when_no_functional_exists():
    with pytest.raises(PredictionRefused):
        verify_scenario(scenario(g=PowerLog(1.0, 1.0, 2.0),
                                 history=ConstantHistory(2.0),
                                 steps_per_delay=8, horizon=40.0))


def test_report_formatting_is_informative():
    result = verify_scenario(scenario(steps_per_delay=10, horizon=200.0))
    text = format_verification(result)
    assert "regime: sublinear-rv" in text
    assert "verdict: PASS" in text
    assert "estimate:" in text
    pred_text = format_prediction(result.prediction, h=0.1)
    assert "grid rate at h=0.1: 1.0" in pred_text


# ---------------------------------------------------------------------------
# envelopes

def test_envelope_params_for_the_flat_case():
    params = derive_envelope_params(scenario(), 0.5)
    assert params.rate == 1.0
    assert params.f_scale == 0.0
    assert params.g_scale >= math.exp(10.0)
    assert params.floor_log > 0.0
    assert params.offset > 1.5   # at least the advance (1+eps)*tau


def test_envelope_holds_for_sublinear_growth():
    check = envelope_check(scenario(steps_per_delay=8, horizon=50.0), 0.5)
    assert check.holds
    assert check.checked == 8 * 50 + 8 + 1
    assert not check.trajectory.truncated


def test_envelope_holds_for_polynomial_growth():
    sc = scenario(g=Power(1.0, 2.0), history=ConstantHistory(2.0),
                  steps_per_delay=8, horizon=100.0)
    check = envelope_check(sc, 0.5)
    assert check.holds


def test_envelope_margins_report_overflowing_levels_as_inf():
    sc = scenario(g=Power(1.0, 2.0), history=ConstantHistory(2.0),
                  steps_per_delay=4, horizon=30.0)
    params = derive_envelope_params(sc, 0.5)
    traj = simulate_euler(sc)
    rows = envelope_margins(traj, params)
    assert len(rows) == len(traj.log_states)
    # dominance in level space wherever the level is representable
    for n, state, env in rows:
        if math.isfinite(env):
            assert env > state or n < 0
    assert rows[-1][2] >= rows[0][2]


def test_envelope_margins_share_probes_across_the_column(probes):
    # the column inverts (1+eps) t + offset at every step, so its values
    # ascend; one invert per row needed 36.7 probes per row here
    config = load_config([str(ROOT / "configs" / "envelope_rv1.cfg")])
    sc = build_scenario(config)
    params = derive_envelope_params(sc, config.get_float("eps"))
    traj = simulate_euler(sc)
    rows = envelope_margins(traj, params)
    assert len(rows) == 1605
    assert len(probes) <= 22 * len(rows)

    def per_row(n):
        try:
            return invert(params.functional, (1.0 + params.eps) * traj.time(n) + params.offset)
        except HorizonExceeded:
            return math.inf
    assert [env.hex() for _, _, env in rows] == [per_row(n).hex() for n in traj.indices()]


def test_envelope_refused_without_a_comparison_scale():
    sc = scenario(g=PowerLog(1.0, 1.0, 2.0), history=ConstantHistory(2.0))
    with pytest.raises(DomainError) as err:
        derive_envelope_params(sc, 0.5)
    assert str(err.value) == ("no built-in comparison scale for the delayed term "
                              "powerlog(1.0,1.0,2.0); an envelope cannot be derived")


def test_envelope_eps_must_sit_in_the_unit_interval():
    for eps in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            derive_envelope_params(scenario(), eps)


# ---------------------------------------------------------------------------
# step-size sweeps

def test_sweep_collects_grids_in_coarse_to_fine_order():
    result = sweep_h(Zero(), Constant(2.0), 1.0, ConstantHistory(1.0), 200.0,
                     [10, 2, 5])
    assert [p.steps_per_delay for p in result.points] == [2, 5, 10]
    assert all(p.predicted == 1.0 for p in result.points)
    assert result.extrapolated == pytest.approx(1.0, abs=0.02)


def test_sweep_requires_three_distinct_grids():
    with pytest.raises(DomainError):
        sweep_h(Zero(), Constant(2.0), 1.0, ConstantHistory(1.0), 200.0,
                [4, 4, 4])


def test_sweep_predicted_column_rises_as_h_shrinks():
    result = sweep_h(Zero(), Power(1.0, 2.0), 1.0, ConstantHistory(2.0), 150.0,
                     [2, 4, 8])
    predicted = [p.predicted for p in result.points]    # coarse to fine
    assert all(b > a for a, b in zip(predicted, predicted[1:]))
    assert predicted[-1] == pytest.approx(math.log(2.0) / 1.125)


def test_sweep_extrapolation_uses_the_two_finest_grids():
    result = sweep_h(Zero(), Linear(1.0), 1.0, ConstantHistory(1.0), 60.0,
                     [4, 8, 16, 32])
    lam = 0.5671432904097838
    fine = sorted(result.points, key=lambda p: p.h)[:2]
    a, b = fine[1], fine[0]
    manual = (b.estimated * a.h - a.estimated * b.h) / (a.h - b.h)
    assert result.extrapolated == pytest.approx(manual)
    assert abs(result.extrapolated - lam) / lam < 0.01
