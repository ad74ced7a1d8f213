"""End-to-end acceptance checks.

One test per criterion; each prints a single summary line (visible under
``pytest -s``) before asserting, so a full run reads as a checklist.
Expected values come from independent oracles: the characteristic root
from a bisection cross-checked against scipy's lambertw, grid limits
from closed-form arithmetic, and trajectory statistics frozen from a
plain-float reference implementation.
"""

import math

import numpy as np
import pytest

from delaygrowth import (
    ConstantHistory, ExpLogPow, Linear, LinTimesExpLogPow, NestedLogProduct,
    Power, PowerLog, Scenario, Zero, envelope_check, estimate_rate,
    evaluate, gain_time, ode_time, predict, simulate_euler, sweep_h,
)
from delaygrowth.analysis import EstimateStatus
from delaygrowth.cli import main as cli_main
from delaygrowth.functionals import QUAD_ABS_TOL, QUAD_REL_TOL, _adaptive
from oracle import ode_float_integrand
from undelayed import undelayed_log_states

LAMBDA_UNIT = 0.5671432904097838   # bisection oracle, agrees with lambertw(1)
LOG2 = math.log(2.0)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _scenario(g, n, horizon, f=Zero(), psi=1.0):
    return Scenario(f=f, g=g, tau=1.0, steps_per_delay=n,
                    history=ConstantHistory(psi), horizon=horizon)


def _estimate(scenario):
    prediction = predict(scenario)
    trajectory = simulate_euler(scenario)
    return estimate_rate(trajectory, prediction.observable)


def test_01_sublinear_rate_and_grid_independence():
    # g = sqrt(x): the time functional is H(x) = 2(sqrt(x) - 1) and
    # H(x_h(n))/(nh) tends to 1 on every grid
    scenario = _scenario(Power(1.0, 0.5), 10, 2000.0)
    prediction = predict(scenario)
    assert prediction.observable is prediction.functional
    u = 2.0
    assert evaluate(prediction.functional, u) == pytest.approx(
        2.0 * (math.exp(u / 2.0) - 1.0), rel=1e-12)
    fine = _estimate(scenario)
    coarse = _estimate(_scenario(Power(1.0, 0.5), 2, 2000.0))
    shift = abs(fine.point - coarse.point)
    ok = (fine.status is EstimateStatus.CONVERGED
          and abs(fine.point - 1.0) <= 0.02
          and shift < 0.02)
    assert _report(1, ok, f"estimate {fine.point:.5f} (target 1 +/- 0.02), "
                          f"N=2 shift {shift:.5f} (< 0.02)")


def test_02_linear_rate_matches_the_characteristic_root():
    result = sweep_h(Zero(), Linear(1.0), 1.0, ConstantHistory(1.0), 300.0,
                     [16, 32, 64])
    deviation = abs(result.extrapolated - LAMBDA_UNIT) / LAMBDA_UNIT
    ok = deviation <= 0.02
    assert _report(2, ok, f"extrapolated {result.extrapolated:.6f} vs root "
                          f"{LAMBDA_UNIT:.6f}, deviation {deviation:.2%} (<= 2%)")


def test_03_rv1_rate():
    # g = x exp(sqrt(log x)): window-count functional per time tends to
    # 1/(tau + h) = 0.8 on this grid
    estimate = _estimate(_scenario(LinTimesExpLogPow(1.0, 0.5), 4, 400.0))
    deviation = abs(estimate.point - 0.8) / 0.8
    ok = deviation <= 0.05
    assert _report(3, ok, f"estimate {estimate.point:.5f} vs 0.8, "
                          f"deviation {deviation:.2%} (<= 5%)")


def test_04_polynomial_rate():
    target = LOG2 / 1.25    # log 2 / (tau + h), h = 0.25
    estimate = _estimate(_scenario(Power(1.0, 2.0), 4, 600.0))
    deviation = abs(estimate.point - target) / target
    ok = deviation <= 0.03
    assert _report(4, ok, f"estimate {estimate.point:.6f} vs {target:.6f}, "
                          f"deviation {deviation:.2%} (<= 3%)")


def test_05_step_size_sweep_extrapolates_to_the_continuum():
    result = sweep_h(Zero(), Power(1.0, 2.0), 1.0, ConstantHistory(1.0), 600.0,
                     [1, 2, 4, 8])
    worst = max(abs(p.estimated - p.predicted) / p.predicted
                for p in result.points)
    deviation = abs(result.extrapolated - LOG2) / LOG2
    ok = worst <= 0.05 and deviation <= 0.03
    assert _report(5, ok, f"worst per-grid deviation {worst:.2%} (<= 5%), "
                          f"extrapolated {result.extrapolated:.6f} vs log 2, "
                          f"deviation {deviation:.2%} (<= 3%)")


def test_06_undelayed_window_count_per_step():
    # squaring recursion y <- y + y^2 from 2 on a unit grid.  Each step
    # gives log y_{n+1} = 2 log y_n + log1p(1/y_n), so log y doubles up to
    # a term below 1/y_n, and the window count G(y) = log log y + O(1)
    # advances by log 2 per step up to O(1/y_n) (log(b)/(b-1) for g = x^b),
    # far below float rounding once n >= 40.  The advance is 1 only for
    # shapes just past linear; that case is checked by
    # test_analysis.py::test_undelayed_window_count_for_a_near_linear_shape
    states, truncated = undelayed_log_states(Power(1.0, 2.0), 2.0, 60)
    counter = gain_time(Power(1.0, 2.0))
    assert truncated is False and len(states) == 61
    counts = [evaluate(counter, u) for u in states]
    # gain-time is evaluated by quadrature, so each G(y_n) carries at most the
    # quadrature budget at G(y_60); a difference of two carries twice that
    tol = 2.0 * (QUAD_REL_TOL * counts[60] + QUAD_ABS_TOL)
    steps = range(40, 60)
    worst = max(abs(counts[n + 1] - counts[n] - LOG2) for n in steps)
    # the states alone, without the functional: log log y gains log 2
    # up to float rounding
    logs = [math.log(u) for u in states]
    worst_states = max(abs(logs[n + 1] - logs[n] - LOG2) for n in steps)
    ratios = [counts[n] / n for n in range(40, 61)]
    ok = worst <= tol and worst_states <= 1e-12
    assert _report(6, ok, f"G(y_(n+1)) - G(y_n) within {worst:.1e} of log 2 "
                          f"(<= {tol:.1e}), log log y within {worst_states:.1e} "
                          f"(<= 1e-12) over n=40..59; G(y_n)/n in "
                          f"[{min(ratios):.4f}, {max(ratios):.4f}]")


def test_07_instantaneous_term_dominated_or_refused():
    target = LOG2 / 1.25
    estimate = _estimate(_scenario(Power(1.0, 2.0), 4, 600.0,
                                   f=Power(1.0, 0.5)))
    deviation = abs(estimate.point - target) / target
    refused = cli_main(["predict", "g=power(1,2)", "f=power(1,1.2)", "tau=1",
                        "psi=const(1)", "N=4", "horizon=600"])
    ok = deviation <= 0.03 and refused == 2
    assert _report(7, ok, f"with f=sqrt(x): deviation {deviation:.2%} (<= 3%); "
                          f"with f=x^1.2: predict exits {refused} (wanted 2)")


def test_08_closed_forms_agree_with_quadrature():
    # Gamma(x) = ((log x)^(1-a) - 1)/(1-a) for phi = x (log x)^a, a = 1/2;
    # an ode-time functional is its closed form, so the quadrature engine
    # runs on the oracle's float integrand of the same shape
    alpha = 0.5
    gamma = ode_time(PowerLog(1.0, 1.0, alpha), math.e)
    worst = 0.0
    for u in np.linspace(1.5, 600.0, 20):
        closed = evaluate(gamma, float(u))
        expected = (u ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
        assert closed == pytest.approx(expected, rel=1e-10)
        quad = _adaptive(ode_float_integrand(gamma.coeff), gamma.log_lower, float(u))
        worst = max(worst, abs(quad - closed) / closed)
    # G(x) = log x for g = (e-1) x: the per-window gain is exactly 1.
    # Gain-time is evaluated by quadrature only, so this checks that route
    # against the exact value
    counter = gain_time(Linear(math.e - 1.0))
    for u in np.linspace(0.5, 500.0, 20):
        assert evaluate(counter, float(u)) == pytest.approx(u, rel=1e-12)
    ok = worst <= 1e-8
    assert _report(8, ok, f"worst closed-vs-quadrature relative error "
                          f"{worst:.2e} (<= 1e-8) over 20 points; "
                          f"G(x) = log x to 1e-12 over 20 points")


def test_09_envelopes_dominate_every_step():
    cases = [
        ("sublinear", _scenario(Power(1.0, 0.5), 10, 2000.0)),
        ("rv1", _scenario(LinTimesExpLogPow(1.0, 0.5), 4, 400.0)),
        ("polynomial", _scenario(Power(1.0, 2.0), 4, 600.0)),
    ]
    outcomes = []
    for label, scenario in cases:
        check = envelope_check(scenario, 0.5)
        outcomes.append((label, check.holds, check.checked,
                         len(check.violations)))
    ok = all(holds and violations == 0 for _, holds, _, violations in outcomes)
    detail = "; ".join(f"{label}: {'holds' if holds else 'VIOLATED'} "
                       f"over {checked} steps"
                       for label, holds, checked, _ in outcomes)
    assert _report(9, ok, detail + " (eps = 0.5)")


def test_10_faster_than_polynomial_regime():
    # closed form of the triple-log functional against the quadrature
    # engine on the oracle's float integrand
    shape = NestedLogProduct()
    fn = ode_time(shape, 2.0, scale=LOG2)   # any lower above e - 1 works
    worst = 0.0
    for u in np.linspace(1.5, 500.0, 20):
        closed = evaluate(fn, float(u))
        quad = _adaptive(ode_float_integrand(shape), fn.log_lower, float(u)) / fn.scale
        worst = max(worst, abs(quad - closed) / closed)
    # the trajectory overflows the log-domain cap within a few delay
    # windows; over the reachable range the triple log climbs at log 2
    # per delay, within a wide tolerance
    trajectory = simulate_euler(_scenario(ExpLogPow(1.0, 2.0), 8, 100.0))
    obs = [(trajectory.time(n), math.log(math.log(trajectory.state(n))))
           for n in trajectory.indices()
           if n >= 1 and trajectory.state(n) > 1.0]
    increasing = all(b[1] > a[1] for a, b in zip(obs, obs[1:]))
    slope = (obs[-1][1] - obs[0][1]) / (obs[-1][0] - obs[0][0])
    deviation = abs(slope - LOG2) / LOG2
    ok = worst <= 1e-8 and trajectory.truncated and increasing and deviation <= 0.30
    assert _report(10, ok, f"quadrature error {worst:.2e} (<= 1e-8); "
                           f"truncated={trajectory.truncated}, triple-log "
                           f"increasing={increasing}, slope {slope:.4f} vs "
                           f"log 2, deviation {deviation:.2%} (<= 30%)")
