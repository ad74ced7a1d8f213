"""Rate prediction, empirical estimation, and envelope verification.

The delayed term's regime fixes which observable of the trajectory has a
known limit:

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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .coefficients import (
    CoefficientSpec, DEFAULT_PROBE_SCALES, Linear, LinTimesExpLogPow, LimitKind,
    LimitVerdict, PowerLog, RegimeKind, Regime, Zero, classify_regime,
    limit_probe,
)
from .errors import DomainError, HorizonExceeded, NumericError
from .functionals import (
    GrowthFunctional, NestedLogProduct, default_ode_lower, diverges, evaluate,
    evaluate_many, gain_time, invert, ode_time, sublinear_time,
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
    required: LimitKind

    @property
    def passed(self) -> bool:
        return self.verdict.kind is self.required

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
        kind = self.regime.kind
        if kind is RegimeKind.SUBLINEAR_RV:
            return 1.0
        if kind is RegimeKind.RV1_SUPERLINEAR:
            return 1.0 / (self.tau + h)
        if kind is RegimeKind.POLY_SUPERLINEAR:
            return math.log(self.regime.index) / (self.tau + h)
        return None


def solve_char_eq(slope: float, tau: float) -> float:
    """The positive root of lambda = slope * exp(-lambda * tau)."""
    if not (math.isfinite(slope) and slope > 0):
        raise DomainError(f"slope must be positive and finite, got {slope!r}")
    if not (math.isfinite(tau) and tau > 0):
        raise DomainError(f"delay must be positive and finite, got {tau!r}")
    # bisect to the last representable digit; 200 halvings of [0, slope]
    # exhaust double precision long before the iteration cap
    lo, hi = 0.0, slope
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        residual = mid - slope * math.exp(-mid * tau)
        if residual == 0.0:
            return mid
        if residual < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_TRIVIAL_ZERO = LimitVerdict(LimitKind.ZERO)


def _probe_checks(f: CoefficientSpec, g: CoefficientSpec,
                  conditions: Sequence[tuple[str, Callable[[], LimitVerdict]]],
                  ) -> tuple[HypothesisCheck, ...]:
    out = []
    for condition, run in conditions:
        if isinstance(f, Zero):
            out.append(HypothesisCheck(condition + " (f vanishes identically)",
                                       _TRIVIAL_ZERO, LimitKind.ZERO))
        else:
            out.append(HypothesisCheck(condition, run(), LimitKind.ZERO))
    return tuple(out)


def _log_gain_denominator(g: CoefficientSpec) -> Callable[[float], float]:
    # log of x * log(g(x)/x); only meaningful where g outgrows the identity
    def fn(u: float) -> float:
        excess = g.value_log(u) - u
        if excess <= 0.0:
            raise DomainError(
                f"delayed term {g} does not exceed the identity at log x = {u:g}")
        return u + math.log(excess)
    return fn


def predict(scenario: Scenario) -> Prediction:
    """Classify, check the dominance hypotheses, and pin the rate law.

    Raises PredictionRefused when the regime is not covered or the
    instantaneous term fails a required vanishing probe.
    """
    f, g, tau = scenario.f, scenario.g, scenario.tau
    regime = classify_regime(g)
    kind = regime.kind
    if kind is RegimeKind.UNSUPPORTED:
        raise PredictionRefused(f"no rate law covers the delayed term {g}")

    x_identity = Linear(1.0)
    x_log = PowerLog(1.0, 1.0, 1.0)
    if kind is RegimeKind.SUBLINEAR_RV:
        conditions = [("f(x)/g(x) -> 0", lambda: limit_probe(f, g))]
    elif kind is RegimeKind.LINEAR_RV:
        conditions = [("f(x)/x -> 0", lambda: limit_probe(f, x_identity))]
    elif kind is RegimeKind.RV1_SUPERLINEAR:
        conditions = [
            ("f(x)/x -> 0", lambda: limit_probe(f, x_identity)),
            ("f(x)/(x log(g(x)/x)) -> 0",
             lambda: limit_probe(f, _log_gain_denominator(g))),
        ]
    elif kind is RegimeKind.POLY_SUPERLINEAR:
        conditions = [
            ("f(x)/x -> 0", lambda: limit_probe(f, x_identity)),
            ("f(x)/(x log x) -> 0", lambda: limit_probe(f, x_log)),
        ]
    else:  # faster than polynomial
        conditions = [("f(x)/(x log x) -> 0", lambda: limit_probe(f, x_log))]

    checks = _probe_checks(f, g, conditions)
    failed = [c for c in checks if not c.passed]
    if failed:
        detail = "; ".join(f"{c.condition} came out {c.verdict.describe()}" for c in failed)
        raise PredictionRefused(f"dominance hypothesis failed: {detail}")

    notes: tuple[str, ...] = ()
    functional = default_functional(g)
    if kind is RegimeKind.SUBLINEAR_RV:
        observable = Observable.FUNCTIONAL_OVER_T
        rate = 1.0
    elif kind is RegimeKind.LINEAR_RV:
        observable = Observable.LOG_OVER_T
        rate = solve_char_eq(regime.index, tau)
    elif kind is RegimeKind.RV1_SUPERLINEAR:
        observable = Observable.FUNCTIONAL_OVER_T
        rate = 1.0 / tau
        if functional is not None:
            a = g.exponent
            notes = (
                f"equivalently, log x(t) grows like ((1-a) t / tau)^(1/(1-a)) "
                f"with a = {a!r}, up to lower order terms",
            )
        else:
            # g vanishes at 1, so counting delay windows from 1 is not possible
            notes = (
                f"the window-count functional from 1 is undefined for {g} "
                f"(it vanishes there); only the rate itself is predicted",
            )
    elif kind is RegimeKind.POLY_SUPERLINEAR:
        observable = Observable.LOGLOG_OVER_T
        rate = math.log(regime.index) / tau
    else:
        observable = Observable.LOGLOGLOG_OVER_T
        rate = math.log(regime.index) / tau

    return Prediction(regime=regime, observable=observable, continuous_rate=rate,
                      tau=tau, functional=functional, checks=checks, notes=notes)


def default_functional(g: CoefficientSpec) -> GrowthFunctional | None:
    """The functional the regime of g reports on, when one is defined."""
    kind = classify_regime(g).kind
    if kind is RegimeKind.SUBLINEAR_RV:
        return sublinear_time(g)
    if kind is RegimeKind.RV1_SUPERLINEAR and isinstance(g, LinTimesExpLogPow):
        return gain_time(g)
    return None


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
    states = list(trajectory.log_states[ns.start - offset:ns.stop - offset])
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
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise DomainError(f"tolerance must be positive, got {tolerance!r}")
    prediction = predict(scenario)
    if prediction.observable is Observable.FUNCTIONAL_OVER_T and prediction.functional is None:
        raise PredictionRefused(
            f"no usable functional to verify the {prediction.regime.kind.value} "
            f"rate for {scenario.g}")
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


def format_prediction(prediction: Prediction, h: float | None = None) -> str:
    lines = [f"regime: {prediction.regime.describe()}"]
    for check in prediction.checks:
        lines.append(f"  check {check.describe()}")
    lines.append(f"observable: {prediction.observable.value}")
    lines.append(f"continuous rate: {prediction.continuous_rate!r}")
    if h is not None:
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


def _envelope_shape(prediction: Prediction, g: CoefficientSpec) -> CoefficientSpec:
    kind = prediction.regime.kind
    if kind is RegimeKind.SUBLINEAR_RV:
        return g
    if kind is RegimeKind.LINEAR_RV:
        return Linear(1.0)
    if kind is RegimeKind.RV1_SUPERLINEAR:
        if isinstance(g, LinTimesExpLogPow):
            return PowerLog(1.0, 1.0, g.exponent)
        raise DomainError(
            f"no built-in comparison scale for the delayed term {g}; "
            f"an envelope cannot be derived")
    if kind is RegimeKind.POLY_SUPERLINEAR:
        return PowerLog(1.0, 1.0, 1.0)
    return NestedLogProduct(3)


def derive_envelope_params(scenario: Scenario, eps: float) -> EnvelopeParams:
    """Constants making F(x(t)) < (1+eps) t + offset provable termwise.

    Scans the probe ladder for the scales x1 (above which the
    instantaneous term is an eps-fraction of the envelope slope) and x2
    (above which the delayed term cannot outrun the envelope across one
    delay), then starts the envelope above history + x1 + x2.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps!r}")
    prediction = predict(scenario)
    f, g, tau = scenario.f, scenario.g, scenario.tau
    shape = _envelope_shape(prediction, g)
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

    ladder = list(DEFAULT_PROBE_SCALES)
    f_ok: list[bool | None] = []
    g_ok: list[bool | None] = []
    for u in ladder:
        f_ok.append(f.value_log(u) <= math.log(eps) + eta_log + shape.value_log(u))
        if u < functional.log_lower:
            g_ok.append(False)
            continue
        try:
            ahead = invert(functional, evaluate(functional, u) + advance)
        except (HorizonExceeded, NumericError):
            # the functional's value outruns double range at this rung;
            # the per-step check downstream still covers such scales
            g_ok.append(None)
            continue
        g_ok.append(g.value_log(u) < eta_log + shape.value_log(ahead))

    def first_suffix(flags: list[bool | None]) -> int | None:
        # earliest rung from which every still-testable rung passes
        for i in range(len(flags)):
            tail = [flag for flag in flags[i:] if flag is not None]
            if tail and all(tail):
                return i
        return None

    if isinstance(f, Zero):
        x1 = 0.0
    else:
        i1 = first_suffix(f_ok)
        if i1 is None:
            raise DomainError(
                "no scale on the probe ladder from which the instantaneous term "
                "stays below its envelope share")
        x1 = math.exp(ladder[i1])
    i2 = first_suffix(g_ok)
    if i2 is None:
        raise DomainError(
            "no scale on the probe ladder from which the delayed term "
            "respects the envelope's delay advance")
    x2 = math.exp(ladder[i2])

    log_x1 = math.log(x1) if x1 > 0.0 else -math.inf
    start = log_add(log_add(math.log(psi_sup), log_x1), math.log(x2))
    base = evaluate(functional, start)
    offset = base + advance
    floor_log = invert(functional, base)
    if floor_log <= math.log(psi_sup):
        raise DomainError("envelope floor failed to clear the history")
    return EnvelopeParams(eps=eps, rate=rate, functional=functional,
                          offset=offset, floor_log=floor_log,
                          f_scale=x1, g_scale=x2)


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
    violations = []
    checked = 0
    for n in trajectory.indices():
        checked += 1
        state = trajectory.state(n)
        if state < functional.log_lower:
            continue
        bound = slope * trajectory.time(n) + params.offset
        if not evaluate(functional, state) < bound:
            violations.append(n)
    return EnvelopeCheckResult(params=params, checked=checked,
                               violations=tuple(violations), trajectory=trajectory)


def envelope_margins(trajectory: Trajectory, params: EnvelopeParams,
                     ) -> list[tuple[int, float, float]]:
    """Samples (n, log x_n, log envelope_n); inf where the envelope overflows."""
    out = []
    slope = 1.0 + params.eps
    for n in trajectory.indices():
        bound = slope * trajectory.time(n) + params.offset
        try:
            env_log = invert(params.functional, bound)
        except HorizonExceeded:
            env_log = math.inf
        out.append((n, trajectory.state(n), env_log))
    return out


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
