"""Explicit Euler stepping for the delayed growth recursion.

The grid has spacing h = tau / N, so the delay is exactly N steps and the
update is

    x[n+1] = x[n] + h * f(x[n]) + h * g(x[n - N])

with x on the history segment [-tau, 0] given by a history function.  All
states are carried in the log domain; a run that outgrows the log cap is
returned truncated rather than failing, since reaching the cap quickly is
exactly what the fast regimes do.

When f is zero and N >= ``WINDOW_MIN_STEPS``, the run advances one delay
window at a time (the method of steps): the N states after x[n] depend only
on x[n-N] .. x[n], so the window is one ``np.logaddexp.accumulate`` seeded
with x[n] over the terms log g(x[k]) + log h.  The states are bit-identical
to the per-step loop, which f != 0 and small N keep.  That rests on numpy's
``+``, ``*`` and ``logaddexp`` rounding like the scalar arithmetic, which
holds; numpy's ``log``, ``exp``, ``log1p`` and ``**`` do not (on 500k
inputs drawn from [0, 700] they differed from the math module on 60 for
``log`` up to 26,750 for ``**1.7``), so only the shapes affine in log x
(const, power, linear) evaluate g on an array, and the others map their
scalar formula over the window.

``simulate_direct`` repeats the computation in plain float arithmetic as
an independent cross-check for ranges where that is possible, and
``simulate_undelayed`` iterates the pure recursion y[k+1] = y[k] + g(y[k])
that the delayed dynamics shadow in the superlinear regimes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import dataclass
from typing import IO

import numpy as np

from .coefficients import CoefficientSpec, Zero, classify_regime, RegimeKind, _positive
from .errors import DomainError, HorizonExceeded, NumericError
from .functionals import GrowthFunctional, evaluate_many
from .logdomain import LOG_CAP, log_add, log_scale

# Below this many steps per delay the per-step loop is faster: a window costs
# a fixed handful of numpy calls (measured: 1.4-1.7x the loop's time at N = 2,
# even at N = 3, about 15% less at N = 4, for const, power and xexplogpow).
WINDOW_MIN_STEPS = 4

__all__ = [
    "History", "ConstantHistory", "RampHistory", "parse_history",
    "Scenario", "Trajectory", "SimulationError",
    "simulate_euler", "simulate_direct", "interpolate",
    "UndelayedRun", "simulate_undelayed", "write_trajectory_csv",
]


class SimulationError(NumericError):
    """A step produced a state that is not a number."""


class History:
    """Initial segment, parameterized by the fraction of the delay elapsed.

    ``at(0.0)`` is the oldest point (t = -tau), ``at(1.0)`` the initial
    value at t = 0.
    """

    def at(self, fraction: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantHistory(History):
    level: float

    def __post_init__(self):
        _positive(self.level, "history level")

    def at(self, fraction: float) -> float:
        return self.level

    def __str__(self) -> str:
        return f"const({self.level!r})"


@dataclass(frozen=True)
class RampHistory(History):
    """Linear segment from ``start`` at t = -tau to ``end`` at t = 0."""

    start: float
    end: float

    def __post_init__(self):
        _positive(self.start, "history start")
        _positive(self.end, "history end")

    def at(self, fraction: float) -> float:
        return self.start * (1.0 - fraction) + self.end * fraction

    def __str__(self) -> str:
        return f"ramp({self.start!r},{self.end!r})"


_HISTORY_RE = re.compile(r"^([a-z]+)\s*\(\s*(.*?)\s*\)$")


def parse_history(text: str) -> History:
    """``const(v)``, ``ramp(a,b)``, or a bare positive number."""
    stripped = text.strip().lower()
    try:
        return ConstantHistory(float(stripped))
    except ValueError:
        pass
    m = _HISTORY_RE.match(stripped)
    if m is None:
        raise DomainError(f"cannot parse history {text!r}")
    name, argstr = m.group(1), m.group(2)
    try:
        args = [float(tok.strip()) for tok in argstr.split(",")] if argstr else []
    except ValueError as exc:
        raise DomainError(f"bad numeric parameter in history {text!r}") from exc
    if name == "const" and len(args) == 1:
        return ConstantHistory(args[0])
    if name == "ramp" and len(args) == 2:
        return RampHistory(args[0], args[1])
    raise DomainError(f"cannot parse history {text!r}")


@dataclass(frozen=True)
class Scenario:
    """One fully specified run of the delayed recursion."""

    f: CoefficientSpec
    g: CoefficientSpec
    tau: float
    steps_per_delay: int
    history: History
    horizon: float

    def __post_init__(self):
        _positive(self.tau, "delay tau")
        _positive(self.horizon, "horizon")
        if not isinstance(self.steps_per_delay, int) or isinstance(self.steps_per_delay, bool) \
                or self.steps_per_delay < 1:
            raise DomainError(
                f"steps per delay must be a positive integer, got {self.steps_per_delay!r}")
        if isinstance(self.g, Zero):
            raise DomainError(
                "the delayed term must be strictly positive; zero() is not")
        for v in self.history_samples():
            _positive(v, "history value")
            if not self.g.supports(math.log(v)):
                raise DomainError(
                    f"history value {v!r} lies outside the domain of the delayed term {self.g}")
        start_log = math.log(self.history_samples()[-1])
        if not self.f.supports(start_log):
            raise DomainError(
                f"initial value {self.history_samples()[-1]!r} lies outside the domain "
                f"of the instantaneous term {self.f}")

    @property
    def h(self) -> float:
        return self.tau / self.steps_per_delay

    def history_samples(self) -> list[float]:
        """History on the grid, oldest first: indices -N .. 0."""
        n = self.steps_per_delay
        return [self.history.at(k / n) for k in range(n + 1)]

    def history_min(self) -> float:
        return min(self.history_samples())

    def planned_steps(self) -> int:
        # nudge past representation error when the horizon is an exact multiple
        return int(math.floor(self.horizon / self.h + 1e-9))

    def describe(self) -> str:
        return (f"x' = {self.f} + delayed {self.g}, tau={self.tau:g}, "
                f"h={self.h:g} ({self.steps_per_delay}/delay), "
                f"history {self.history}, horizon {self.horizon:g}")


@dataclass(frozen=True)
class Trajectory:
    """Grid log-states from index -N (oldest history point) onwards."""

    scenario: Scenario
    log_states: tuple[float, ...]
    truncated: bool

    @property
    def h(self) -> float:
        return self.scenario.h

    @property
    def n_start(self) -> int:
        return -self.scenario.steps_per_delay

    @property
    def n_end(self) -> int:
        return self.n_start + len(self.log_states) - 1

    @property
    def forward_steps(self) -> int:
        """Completed steps past t = 0."""
        return self.n_end

    def state(self, n: int) -> float:
        """log x at grid index n."""
        if not self.n_start <= n <= self.n_end:
            raise DomainError(f"grid index {n} outside [{self.n_start}, {self.n_end}]")
        return self.log_states[n - self.n_start]

    def time(self, n: int) -> float:
        return n * self.h

    def indices(self) -> range:
        return range(self.n_start, self.n_end + 1)

    def fingerprint(self) -> str:
        """First 16 hex digits of the SHA-256 of the states and the truncation flag."""
        payload = ",".join(map(repr, self.log_states))
        payload += f";truncated={self.truncated}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def simulate_euler(scenario: Scenario) -> Trajectory:
    """Run the recursion in the log domain up to the horizon or the cap."""
    states = [math.log(v) for v in scenario.history_samples()]
    if isinstance(scenario.f, Zero) and scenario.steps_per_delay >= WINDOW_MIN_STEPS:
        truncated = _step_windows(scenario, states)
    else:
        truncated = _step_singly(scenario, states)
    return Trajectory(scenario=scenario, log_states=tuple(states), truncated=truncated)


def _step_singly(scenario: Scenario, states: list[float]) -> bool:
    """Append states one Euler step at a time; True when the cap cut the run."""
    n_delay = scenario.steps_per_delay
    h = scenario.h
    f_log, g_log = scenario.f.value_log, scenario.g.value_log
    for _ in range(scenario.planned_steps()):
        current = states[-1]
        try:
            step = log_add(current, log_scale(f_log(current), h))
            step = log_add(step, log_scale(g_log(states[-1 - n_delay]), h))
        except HorizonExceeded:
            return True
        if math.isnan(step):
            raise SimulationError(f"state became undefined after {len(states)} samples")
        states.append(step)
    return False


def _step_windows(scenario: Scenario, states: list[float]) -> bool:
    """Append states one delay window at a time (f must be zero).

    The N steps after state n read only states n-N .. n, so a window is the
    running log-sum of its seed x[n] and the terms log h + log g(x[k]).
    No domain check is needed: states past t = 0 never fall below x[0],
    and the scenario has checked every history point against g.
    """
    n_delay = scenario.steps_per_delay
    log_h = math.log(scenario.h)
    log_terms = scenario.g.log_terms
    full, rest = divmod(scenario.planned_steps(), n_delay)
    widths = itertools.chain(itertools.repeat(n_delay, full), [rest] if rest else [])
    block = np.array(states)            # the last N+1 states
    # overflow and NaN are caught by the cap test below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for width in widths:
            window = np.empty(width + 1)
            window[0] = block[-1]
            np.add(log_terms(block[:width]), log_h, out=window[1:])
            block = np.logaddexp.accumulate(window)
            # logaddexp never decreases, so a NaN or a state over the cap
            # anywhere in the window leaves the last state failing this test
            if not block[-1] <= LOG_CAP:
                bad = int(np.argmin(block <= LOG_CAP))
                if math.isnan(block[bad]):
                    raise SimulationError(
                        f"state became undefined after {len(states) + bad - 1} samples")
                states.extend(block[1:bad].tolist())
                return True
            states.extend(block[1:].tolist())
    return False


def simulate_direct(scenario: Scenario, cap: float = 1e15) -> Trajectory:
    """The same recursion in plain float arithmetic, stopping at ``cap``.

    An independent route for cross-checking the log-domain stepping on
    ranges where doubles suffice.
    """
    _positive(cap, "cap")
    n_delay = scenario.steps_per_delay
    h = scenario.h
    xs: list[float] = list(scenario.history_samples())
    truncated = False
    for _ in range(scenario.planned_steps()):
        x = xs[-1] + h * scenario.f.value(xs[-1]) + h * scenario.g.value(xs[-1 - n_delay])
        if math.isnan(x):
            raise SimulationError(f"state became undefined after {len(xs)} samples")
        if x > cap:
            truncated = True
            break
        xs.append(x)
    return Trajectory(scenario=scenario,
                      log_states=tuple(math.log(v) for v in xs),
                      truncated=truncated)


def interpolate(trajectory: Trajectory, t: float) -> float:
    """log x at an off-grid time, linear in the log between neighbors."""
    h = trajectory.h
    position = t / h
    lo = math.floor(position)
    if lo < trajectory.n_start or lo > trajectory.n_end:
        raise DomainError(f"time {t!r} outside the simulated range")
    if lo == trajectory.n_end:
        if position > trajectory.n_end:
            raise DomainError(f"time {t!r} outside the simulated range")
        return trajectory.state(trajectory.n_end)
    frac = position - lo
    a, b = trajectory.state(lo), trajectory.state(lo + 1)
    return a * (1.0 - frac) + b * frac


_UNDELAYED_KINDS = (RegimeKind.RV1_SUPERLINEAR, RegimeKind.POLY_SUPERLINEAR,
                    RegimeKind.FASTER_THAN_POLY)


@dataclass(frozen=True)
class UndelayedRun:
    """States of the pure recursion y[k+1] = y[k] + g(y[k])."""

    log_states: tuple[float, ...]
    truncated: bool

    fingerprint = Trajectory.fingerprint


def simulate_undelayed(g: CoefficientSpec, start: float, n_steps: int) -> UndelayedRun:
    """Iterate y <- y + g(y) from ``start`` for up to ``n_steps`` steps.

    Only meaningful for superlinear delayed terms, where each step at
    least multiplies the state by a growing factor; other regimes are
    refused because the delayed dynamics do not reduce to this recursion.
    """
    if classify_regime(g).kind not in _UNDELAYED_KINDS:
        raise DomainError(
            f"the undelayed recursion needs a superlinear delayed term, not {g}")
    _positive(start, "start value")
    if not isinstance(n_steps, int) or n_steps < 0:
        raise DomainError(f"step count must be a nonnegative integer, got {n_steps!r}")
    if not g.supports(math.log(start)):
        raise DomainError(f"start value {start!r} lies outside the domain of {g}")
    y = math.log(start)
    states = [y]
    truncated = False
    for _ in range(n_steps):
        try:
            y = log_add(y, g.value_log(y))
        except HorizonExceeded:
            truncated = True
            break
        states.append(y)
    return UndelayedRun(log_states=tuple(states), truncated=truncated)


def write_trajectory_csv(trajectory: Trajectory, target,
                         functional: GrowthFunctional | None = None) -> None:
    """Write grid samples as CSV: ``n,t,log_x,functional,ratio``.

    The functional and ratio columns are filled for indices n > 0 whose
    state has reached the functional's lower reference, and left empty
    otherwise.  Floats are written with repr, so files round-trip exactly
    and identical runs produce identical bytes.
    """
    values: dict[int, float] = {}
    if functional is not None:
        eligible = [n for n in trajectory.indices()
                    if n > 0 and trajectory.state(n) >= functional.log_lower]
        results = evaluate_many(functional, [trajectory.state(n) for n in eligible])
        values = dict(zip(eligible, results))

    def render(fh: IO[str]) -> None:
        fh.write("n,t,log_x,functional,ratio\n")
        for n in trajectory.indices():
            t = trajectory.time(n)
            parts = [str(n), repr(t), repr(trajectory.state(n))]
            if n in values:
                parts.append(repr(values[n]))
                parts.append(repr(values[n] / t))
            else:
                parts.extend(["", ""])
            fh.write(",".join(parts) + "\n")

    if hasattr(target, "write"):
        render(target)
    else:
        with open(target, "w", encoding="ascii", newline="\n") as fh:
            render(fh)
