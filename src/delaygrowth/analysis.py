"""Rate prediction, empirical estimation, and envelope verification.

The delayed term's regime fixes which observable of the trajectory has a
known limit.  The regime table ``_LAWS`` is the single definition of these
laws: observable, dominance probes on f, rate (at s = tau, and on the grid
at s = tau + h where that is exact), functional and envelope scale.  In sum:

    sublinear        F(x_n)/(n h) -> 1          (ode-time functional of g)
    linear (slope C) log(x_n)/(n h) -> lambda,  lambda = C exp(-lambda tau)
    unit-index fast  G(x_n)/(n h) -> 1/(tau+h)  (gain-time functional of g)
    polynomial (b)   loglog(x_n)/(n h) -> log(b)/(tau+h)
    beyond poly (a)  logloglog(x_n)/(n h) -> log(a)/tau

``predict`` checks the dominance hypotheses behind these laws with limit
probes before committing, ``estimate_rate`` reads the observable off a
simulated trajectory, and the envelope functions build and test explicit
dominating curves of the form F(x) < (1+eps) t + c.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .coefficients import (
    CoefficientSpec, DEFAULT_PROBE_SCALES, Linear, LinTimesExpLogPow, LimitKind,
    LimitVerdict, PowerLog, RegimeKind, Regime, Zero, _exp, _positive,
    classify_regime, limit_probe,
)
from .errors import DomainError, HorizonExceeded, NumericError
from .functionals import (
    GrowthFunctional, NestedLogProduct, default_ode_lower, diverges, evaluate,
    evaluate_many, gain_time, invert, invert_many, ode_time,
)
from .logdomain import log_add
from .simulator import Scenario, Trajectory, simulate_euler

__all__ = [
    "Observable", "PredictionRefused", "EstimationError",
    "HypothesisCheck", "Prediction", "predict", "default_functional",
    "solve_char_eq",
    "EstimateStatus", "RateEstimate", "estimate_rate",
    "VerificationResult", "verify_scenario", "format_prediction",
    "format_verification",
    "EnvelopeParams", "derive_envelope_params", "EnvelopeCheckResult",
    "envelope_check", "envelope_margins",
    "SweepPoint", "SweepResult", "sweep_h",
]


class Observable(Enum):
    FUNCTIONAL_OVER_T = "functional-over-t"
    LOG_OVER_T = "log-over-t"
    LOGLOG_OVER_T = "loglog-over-t"
    LOGLOGLOG_OVER_T = "logloglog-over-t"


class PredictionRefused(Exception):
    """A dominance hypothesis failed its probe; no rate law applies."""


class EstimationError(NumericError):
    """The trajectory cannot support a rate estimate."""


@dataclass(frozen=True)
class HypothesisCheck:
    condition: str
    verdict: LimitVerdict

    @property
    def passed(self) -> bool:
        return self.verdict.kind is LimitKind.ZERO

    def describe(self) -> str:
        state = "ok" if self.passed else "FAILED"
        return f"{self.condition}: {self.verdict.describe()} [{state}]"


@dataclass(frozen=True)
class Prediction:
    regime: Regime
    observable: Observable
    continuous_rate: float
    tau: float
    functional: GrowthFunctional | None
    checks: tuple[HypothesisCheck, ...]
    notes: tuple[str, ...] = ()

    def discrete_rate(self, h: float) -> float | None:
        """The limit on the h-grid, where one is known exactly."""
        if not (math.isfinite(h) and 0 < h <= self.tau):
            raise DomainError(f"step size must lie in (0, tau], got {h!r}")
        law = _LAWS[self.regime.kind]
        return law.rate(self.regime.index, self.tau + h) if law.grid_exact else None


def solve_char_eq(slope: float, tau: float) -> float:
    """The positive root of lambda = slope * exp(-lambda * tau)."""
    _positive(slope, "slope")
    _positive(tau, "delay")
    # bisect until no double lies strictly between the bounds: about
    # log2(slope / root) + 53 halvings, under 2,100 across the double range
    lo, hi = 0.0, slope
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        decay = math.exp(-mid * tau)
        if decay < sys.float_info.min:
            # subnormal or zero, so slope * decay has lost its digits:
            # take the sign from the logs of the two sides instead
            residual = math.log(mid) + mid * tau - math.log(slope)
        else:
            residual = mid - slope * decay
        if residual == 0.0:
            return mid
        if residual < 0.0:
            lo = mid
        else:
            hi = mid


_TRIVIAL_ZERO = LimitVerdict(LimitKind.ZERO)


def _log_gain_denominator(g: CoefficientSpec) -> Callable[[float], float]:
    # log of x * log(g(x)/x); only meaningful where g outgrows the identity
    def fn(u: float) -> float:
        excess = g.value_log(u) - u
        if excess <= 0.0:
            raise DomainError(
                f"delayed term {g} does not exceed the identity at log x = {u:g}")
        return u + math.log(excess)
    return fn


def _rv1_scale(g: CoefficientSpec) -> CoefficientSpec:
    # x (log x)^a has the log-gain of x exp((log x)^a); other RV1 shapes have no scale
    if not isinstance(g, LinTimesExpLogPow):
        raise DomainError(f"no built-in comparison scale for the delayed term {g}; "
                          f"an envelope cannot be derived")
    return PowerLog(1.0, 1.0, g.exponent)


def _rv1_notes(g: CoefficientSpec, functional: GrowthFunctional | None) -> tuple[str, ...]:
    if functional is None:      # g vanishes at 1: delay windows cannot be counted from 1
        return (f"the window-count functional from 1 is undefined for {g} "
                f"(it vanishes there); only the rate itself is predicted",)
    return (f"equivalently, log x(t) grows like ((1-a) t / tau)^(1/(1-a)) "
            f"with a = {g.exponent!r}, up to lower order terms",)


class _Law(NamedTuple):
    observable: Observable
    # (condition, g -> denominator): f over the denominator must vanish
    probes: tuple[tuple[str, Callable[[CoefficientSpec], object]], ...]
    rate: Callable[[float | None, float], float]      # (regime index, s)
    grid_exact: bool
    scale: Callable[[CoefficientSpec], CoefficientSpec]     # of the envelope
    functional: Callable[[CoefficientSpec], GrowthFunctional | None] = lambda g: None
    notes: Callable[..., tuple[str, ...]] = lambda g, functional: ()


# lambdas look public functions up at call time, where a tracer can wrap them
_OVER_X = ("f(x)/x -> 0", lambda g: Linear(1.0))
_OVER_X_LOG_X = ("f(x)/(x log x) -> 0", lambda g: PowerLog(1.0, 1.0, 1.0))
_LAWS = {
    RegimeKind.SUBLINEAR_RV: _Law(
        Observable.FUNCTIONAL_OVER_T, (("f(x)/g(x) -> 0", lambda g: g),),
        rate=lambda index, s: 1.0, grid_exact=True,
        scale=lambda g: g, functional=lambda g: ode_time(g, 1.0)),
    RegimeKind.LINEAR_RV: _Law(
        Observable.LOG_OVER_T, (_OVER_X,),
        rate=lambda index, s: solve_char_eq(index, s), grid_exact=False,
        scale=lambda g: Linear(1.0)),
    RegimeKind.RV1_SUPERLINEAR: _Law(
        Observable.FUNCTIONAL_OVER_T,
        (_OVER_X, ("f(x)/(x log(g(x)/x)) -> 0", _log_gain_denominator)),
        rate=lambda index, s: 1.0 / s, grid_exact=True,
        scale=_rv1_scale,
        # windows are counted from x = 1, which must lie in g's domain
        functional=lambda g: gain_time(g) if g.supports(0.0) else None,
        notes=_rv1_notes),
    RegimeKind.POLY_SUPERLINEAR: _Law(
        Observable.LOGLOG_OVER_T, (_OVER_X, _OVER_X_LOG_X),
        rate=lambda index, s: math.log(index) / s, grid_exact=True,
        scale=lambda g: PowerLog(1.0, 1.0, 1.0)),
    RegimeKind.FASTER_THAN_POLY: _Law(
        Observable.LOGLOGLOG_OVER_T, (_OVER_X_LOG_X,),
        rate=lambda index, s: math.log(index) / s, grid_exact=False,
        scale=lambda g: NestedLogProduct()),
}


def predict(scenario: Scenario) -> Prediction:
    """Classify, check the dominance hypotheses, and pin the rate law.

    Raises PredictionRefused when the regime is not covered or the
    instantaneous term fails a required vanishing probe.
    """
    f, g, tau = scenario.f, scenario.g, scenario.tau
    regime = classify_regime(g)
    law = _LAWS.get(regime.kind)
    if law is None:
        raise PredictionRefused(f"no rate law covers the delayed term {g}")
    checks = tuple(
        HypothesisCheck(condition + " (f vanishes identically)", _TRIVIAL_ZERO)
        if isinstance(f, Zero) else
        HypothesisCheck(condition, limit_probe(f, denominator(g)))
        for condition, denominator in law.probes)
    failed = [c for c in checks if not c.passed]
    if failed:
        detail = "; ".join(f"{c.condition} came out {c.verdict.describe()}" for c in failed)
        raise PredictionRefused(f"dominance hypothesis failed: {detail}")

    functional = default_functional(g)
    return Prediction(regime=regime, observable=law.observable,
                      continuous_rate=law.rate(regime.index, tau), tau=tau,
                      functional=functional, checks=checks,
                      notes=law.notes(g, functional))


def default_functional(g: CoefficientSpec) -> GrowthFunctional | None:
    """The functional the regime of g reports on, when one is defined."""
    law = _LAWS.get(classify_regime(g).kind)
    return None if law is None else law.functional(g)


# ---------------------------------------------------------------------------
# rate estimation

class EstimateStatus(Enum):
    CONVERGED = "converged"
    TRENDING = "trending"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RateEstimate:
    point: float
    dispersion: float
    status: EstimateStatus
    warmup: int
    tail: int

    def describe(self) -> str:
        return (f"{self.point!r} (spread {self.dispersion:.3g} over the last "
                f"{self.tail} samples, {self.status.value})")


MIN_POST_WARMUP = 100


def _observable_values(trajectory: Trajectory, observable: Observable,
                       functional: GrowthFunctional | None,
                       ns: range) -> list[float]:
    offset = trajectory.n_start
    states = trajectory.log_states[ns.start - offset:ns.stop - offset].tolist()
    if observable is Observable.FUNCTIONAL_OVER_T:
        if functional is None:
            raise DomainError("this observable needs a growth functional")
        return evaluate_many(functional, states)
    if observable is Observable.LOG_OVER_T:
        return states
    try:
        if observable is Observable.LOGLOG_OVER_T:
            return [math.log(s) for s in states]
        return [math.log(math.log(s)) for s in states]
    except ValueError as exc:
        raise EstimationError(
            f"observable {observable.value} undefined on part of the tail") from exc


def estimate_rate(trajectory: Trajectory, observable: Observable,
                  functional: GrowthFunctional | None = None,
                  tolerance: float | None = None) -> RateEstimate:
    """Read the observable's limit off the trajectory tail.

    The warmup is ten delay windows (at least 100 samples); at least 100
    samples must remain past it.  The point estimate is the median ratio
    over the final quarter of the usable range (at least 30 samples), and
    the estimate counts as converged when the tail's spread is within the
    tolerance (relative 5% by default).
    """
    n_delay = -trajectory.n_start
    warmup = max(10 * n_delay, 100)
    final = trajectory.forward_steps
    post = final - warmup
    if post < MIN_POST_WARMUP:
        raise EstimationError(
            f"{max(post, 0)} samples past warmup {warmup}; need {MIN_POST_WARMUP} "
            f"(simulate longer or reduce the warmup by lowering steps per delay)")
    tail = max(30, post // 4)
    ns = range(final - tail + 1, final + 1)
    values = _observable_values(trajectory, observable, functional, ns)
    h = trajectory.h
    ratios = [v / (n * h) for v, n in zip(values, ns)]
    point = statistics.median(ratios)
    dispersion = max(ratios) - min(ratios)
    allowed = tolerance if tolerance is not None else 0.05 * abs(point)
    if dispersion <= allowed:
        status = EstimateStatus.CONVERGED
    elif all(b > a for a, b in zip(ratios, ratios[1:])) \
            or all(b < a for a, b in zip(ratios, ratios[1:])):
        status = EstimateStatus.TRENDING
    else:
        status = EstimateStatus.INCONCLUSIVE
    return RateEstimate(point=point, dispersion=dispersion, status=status,
                        warmup=warmup, tail=tail)


def _require_observable(prediction: Prediction, g: CoefficientSpec) -> None:
    """Refuse, before any simulation, a prediction whose observable cannot be read."""
    if prediction.observable is Observable.FUNCTIONAL_OVER_T and prediction.functional is None:
        raise PredictionRefused(
            f"no usable functional to verify the {prediction.regime.kind.value} "
            f"rate for {g}")


# ---------------------------------------------------------------------------
# one-scenario verification

@dataclass(frozen=True)
class VerificationResult:
    scenario: Scenario
    prediction: Prediction
    estimate: RateEstimate
    target: float
    tolerance: float
    slack: float
    trajectory: Trajectory
    passed: bool


def verify_scenario(scenario: Scenario, tolerance: float = 0.05) -> VerificationResult:
    """Simulate, estimate, and compare against the predicted grid limit.

    For the linear regime no exact grid limit is known; the comparison
    uses the continuous rate widened by 3 h lambda^2, the size of the
    first-order discretization shift of the characteristic root.
    """
    _positive(tolerance, "tolerance")
    prediction = predict(scenario)
    _require_observable(prediction, scenario.g)
    trajectory = simulate_euler(scenario)
    estimate = estimate_rate(trajectory, prediction.observable, prediction.functional)
    h = scenario.h
    discrete = prediction.discrete_rate(h)
    target = prediction.continuous_rate if discrete is None else discrete
    slack = 0.0
    if prediction.regime.kind is RegimeKind.LINEAR_RV:
        slack = 3.0 * h * prediction.continuous_rate ** 2
    passed = (estimate.status is EstimateStatus.CONVERGED
              and abs(estimate.point - target) <= tolerance * abs(target) + slack)
    return VerificationResult(
        scenario=scenario, prediction=prediction, estimate=estimate,
        target=target, tolerance=tolerance, slack=slack, trajectory=trajectory,
        passed=passed)


def format_prediction(prediction: Prediction, h: float) -> str:
    lines = [f"regime: {prediction.regime.describe()}"]
    for check in prediction.checks:
        lines.append(f"  check {check.describe()}")
    lines.append(f"observable: {prediction.observable.value}")
    lines.append(f"continuous rate: {prediction.continuous_rate!r}")
    discrete = prediction.discrete_rate(h)
    if discrete is None:
        lines.append(f"grid rate at h={h:g}: no exact value in this regime")
    else:
        lines.append(f"grid rate at h={h:g}: {discrete!r}")
    if prediction.functional is not None:
        lines.append(f"functional: {prediction.functional.describe()}")
    for note in prediction.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def format_verification(result: VerificationResult) -> str:
    lines = [result.scenario.describe(),
             format_prediction(result.prediction, result.scenario.h),
             f"trajectory: {result.trajectory.fingerprint()}"
             + (" (truncated at the log cap)" if result.trajectory.truncated else ""),
             f"estimate: {result.estimate.describe()}",
             f"target: {result.target!r} "
             f"(tolerance {result.tolerance:g}"
             + (f", slack {result.slack:.3g}" if result.slack else "")
             + ")",
             f"verdict: {'PASS' if result.passed else 'FAIL'}"]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# explicit dominating curves

@dataclass(frozen=True)
class EnvelopeParams:
    """A curve F(x) = (1+eps) t + offset dominating the trajectory.

    ``functional`` is scaled so that F of the true solution advances at
    unit speed; the envelope advances at 1+eps and starts one delay early
    from ``floor`` (its value at t = -tau), which sits above the whole
    history.
    """

    eps: float
    rate: float
    functional: GrowthFunctional
    offset: float
    floor_log: float
    f_scale: float       # x1: from here on, f stays below eps*(1+eps)*rate*phi
    g_scale: float       # x2: from here on, g respects the delayed advance bound


def _first_rung(fits: Callable[[float], bool | None], failure: str) -> float:
    """The earliest probe-ladder rung from which every testable rung fits.

    ``fits`` returns None at a rung that cannot be tested; raises
    DomainError(failure) when no rung qualifies.
    """
    flags = [fits(u) for u in DEFAULT_PROBE_SCALES]
    for i, rung in enumerate(DEFAULT_PROBE_SCALES):
        tested = [flag for flag in flags[i:] if flag is not None]
        if tested and all(tested):
            return rung
    raise DomainError(failure)


def derive_envelope_params(scenario: Scenario, eps: float) -> EnvelopeParams:
    """Constants making F(x(t)) < (1+eps) t + offset provable termwise.

    Finds on the probe ladder the scales x1 (above which the instantaneous
    term is an eps-fraction of the envelope slope) and x2 (above which the
    delayed term cannot outrun the envelope across one delay), then starts
    the envelope above history + x1 + x2.  The scales are ladder rungs in
    log x; ``f_scale``/``g_scale`` report x, inf past double range.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps!r}")
    prediction = predict(scenario)
    f, g, tau = scenario.f, scenario.g, scenario.tau
    shape = _LAWS[prediction.regime.kind].scale(g)
    history_min = scenario.history_min()
    if shape.monotone_from > history_min or f.monotone_from > history_min:
        raise DomainError(
            "the envelope argument needs both the comparison scale and the "
            f"instantaneous term nondecreasing from the history minimum {history_min!r} on")
    psi_sup = max(scenario.history_samples())
    lower = default_ode_lower(shape, psi_sup)
    rate = prediction.continuous_rate
    functional = ode_time(shape, lower, scale=rate)
    if not diverges(functional):
        raise DomainError(
            f"comparison functional {functional.describe()} is bounded; "
            f"no envelope of this form exists")
    eta_log = math.log((1.0 + eps) * rate)
    advance = (1.0 + eps) * tau

    def g_fits(u: float) -> bool | None:
        if u < functional.log_lower:
            return False
        try:
            ahead = invert(functional, evaluate(functional, u) + advance)
        except (HorizonExceeded, NumericError):
            # the functional's value outruns double range at this rung;
            # the per-step check downstream still covers such scales
            return None
        return g.value_log(u) < eta_log + shape.value_log(ahead)

    log_x1 = -math.inf if isinstance(f, Zero) else _first_rung(
        lambda u: f.value_log(u) <= math.log(eps) + eta_log + shape.value_log(u),
        "no scale on the probe ladder from which the instantaneous term "
        "stays below its envelope share")
    log_x2 = _first_rung(
        g_fits, "no scale on the probe ladder from which the delayed term "
                "respects the envelope's delay advance")

    start = log_add(log_add(math.log(psi_sup), log_x1), log_x2)
    base = evaluate(functional, start)
    offset = base + advance
    floor_log = invert(functional, base)
    if floor_log <= math.log(psi_sup):
        raise DomainError("envelope floor failed to clear the history")
    return EnvelopeParams(eps=eps, rate=rate, functional=functional,
                          offset=offset, floor_log=floor_log,
                          f_scale=_exp(log_x1), g_scale=_exp(log_x2))


@dataclass(frozen=True)
class EnvelopeCheckResult:
    params: EnvelopeParams
    checked: int
    violations: tuple[int, ...]
    trajectory: Trajectory

    @property
    def holds(self) -> bool:
        return not self.violations


def envelope_check(scenario: Scenario, eps: float) -> EnvelopeCheckResult:
    """Simulate and test F(x_n) < (1+eps) n h + offset at every sample.

    The comparison runs in functional space, which stays within doubles
    even when the envelope's own level would overflow any representation.
    States still below the functional's lower reference are dominated
    outright because the envelope starts above that level.
    """
    params = derive_envelope_params(scenario, eps)
    trajectory = simulate_euler(scenario)
    functional = params.functional
    slope = 1.0 + params.eps
    la = functional.log_lower
    states = trajectory.log_states.tolist()
    above = [(n, state) for n, state in zip(trajectory.indices(), states) if state >= la]
    values = evaluate_many(functional, [state for _, state in above])
    violations = tuple(n for (n, _), value in zip(above, values)
                       if not value < slope * trajectory.time(n) + params.offset)
    return EnvelopeCheckResult(params=params, checked=len(trajectory.log_states),
                               violations=violations, trajectory=trajectory)


def envelope_margins(trajectory: Trajectory, params: EnvelopeParams,
                     ) -> list[tuple[int, float, float]]:
    """Samples (n, log x_n, log envelope_n); inf where the envelope overflows."""
    slope = 1.0 + params.eps
    indices = trajectory.indices()
    bounds = [slope * trajectory.time(n) + params.offset for n in indices]
    return list(zip(indices, trajectory.log_states.tolist(),
                    invert_many(params.functional, bounds)))


# ---------------------------------------------------------------------------
# step-size sweeps

@dataclass(frozen=True)
class SweepPoint:
    steps_per_delay: int
    h: float
    predicted: float | None
    estimated: float
    status: EstimateStatus


@dataclass(frozen=True)
class SweepResult:
    regime: Regime
    observable: Observable
    continuous_rate: float
    points: tuple[SweepPoint, ...]

    @property
    def extrapolated(self) -> float:
        """The h -> 0 limit read from the two finest grids."""
        fine = sorted(self.points, key=lambda p: p.h)[:2]
        (hb, eb), (ha, ea) = ((p.h, p.estimated) for p in fine)
        return (eb * ha - ea * hb) / (ha - hb)


def sweep_h(f: CoefficientSpec, g: CoefficientSpec, tau: float, history,
            horizon: float, steps_per_delay_list: Sequence[int],
            tolerance: float | None = None) -> SweepResult:
    """Verify the same dynamics on several grids and extrapolate to h=0."""
    values = list(steps_per_delay_list)
    if len(set(values)) < 3:
        raise DomainError("a step-size sweep needs at least 3 distinct grids")
    scenarios = [Scenario(f=f, g=g, tau=tau, steps_per_delay=n,
                          history=history, horizon=horizon)
                 for n in sorted(set(values))]
    prediction = predict(scenarios[0])
    _require_observable(prediction, g)
    points = []
    for sc in scenarios:
        trajectory = simulate_euler(sc)
        functional = prediction.functional
        estimate = estimate_rate(trajectory, prediction.observable, functional,
                                 tolerance=tolerance)
        points.append(SweepPoint(steps_per_delay=sc.steps_per_delay, h=sc.h,
                                 predicted=prediction.discrete_rate(sc.h),
                                 estimated=estimate.point,
                                 status=estimate.status))
    points.sort(key=lambda p: -p.h)
    return SweepResult(regime=prediction.regime, observable=prediction.observable,
                       continuous_rate=prediction.continuous_rate,
                       points=tuple(points))
