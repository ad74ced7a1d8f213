"""Explicit Euler stepping for the delayed growth recursion.

The grid has spacing h = tau / N, so the delay is exactly N steps and the
update is

    x[n+1] = x[n] + h * f(x[n]) + h * g(x[n - N])

with x on the history segment [-tau, 0] given by a history function.  All
states are carried in the log domain; a run that outgrows the log cap is
returned truncated rather than failing, since reaching the cap quickly is
exactly what the fast regimes do.  Both kernels start from the scenario's
``log_history``, take log h once per run and read each term's ``log_term``
with no domain check: the scenario took those logs to check every history
point against g, has checked x[0] against f, and states past t = 0 never
fall below x[0].  A trajectory holds its states as one read-only float64
array; readers that format or compute with states take them as Python
floats (``state(n)``, or one ``.tolist()`` of the array).

When f is zero, g has an array form (``log_terms``) and N >=
``WINDOW_MIN_STEPS``, the run advances one delay window at a time (the
method of steps): the N states after x[n] depend only on x[n-N] .. x[n], so
the window is one ``np.logaddexp.accumulate`` seeded with x[n] over the
terms log g(x[k]) + log h; every other run takes the per-step loop.  The
states are bit-identical, since numpy's ``+``, ``*`` and ``logaddexp`` round
like the scalar arithmetic.  Its ``log``, ``exp``, ``log1p`` and ``**`` do
not (on 500k inputs drawn from [0, 700] they differed from the math module
on 60 for ``log`` up to 26,750 for ``**1.7``), so only the shapes affine in
log x (const, power, linear) have an array form.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .coefficients import CoefficientSpec, Zero, _format_call, _parse_call, _positive
from .errors import DomainError, HorizonExceeded, NumericError
from .functionals import GrowthFunctional, evaluate_many
from .logdomain import LOG_CAP, log_add, log_scale

# Below this many steps per delay the loop is as fast or faster.  Loop time over
# window time, f = 0, on power(1,0.5), power(1,2) and linear(1): 0.5 at N = 4,
# 0.9-1.0 at N = 8, about 1.0 at N = 9, 1.1-1.2 at N = 10, 1.3-1.4 at N = 12.
WINDOW_MIN_STEPS = 10

# Most forward steps one run may plan: the window kernel stores 8 bytes a
# state, the per-step loop a Python list of about 32 a state until it returns.
MAX_STEPS = 2**26

# Hashed ahead of the states, so a fingerprint names its own definition.
_FINGERPRINT_TAG = b"delaygrowth trajectory float64-le v2\n"

__all__ = [
    "History", "ConstantHistory", "RampHistory", "parse_history",
    "Scenario", "Trajectory", "SimulationError",
    "simulate_euler", "write_trajectory_csv",
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

    def __str__(self) -> str:
        return _format_call(self, _HISTORIES)


@dataclass(frozen=True)
class ConstantHistory(History):
    level: float

    def __post_init__(self):
        _positive(self.level, "history level")

    def at(self, fraction: float) -> float:
        return self.level


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


# name -> history, read and written by the codec of the coefficient syntax
_HISTORIES: dict[str, type[History]] = {"const": ConstantHistory, "ramp": RampHistory}


def parse_history(text: str) -> History:
    """``const(v)``, ``ramp(a,b)``, or a bare positive number."""
    try:
        level = float(text)
    except ValueError:
        return _parse_call(text, _HISTORIES, "history")
    return ConstantHistory(level)


@dataclass(frozen=True)
class Scenario:
    """One fully specified run; its attribute ``log_history`` is log x on the history grid."""

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
        # the history holds N + 1 samples, so N has the forward steps' bound
        if self.steps_per_delay > MAX_STEPS:
            raise DomainError(
                f"steps per delay {self.steps_per_delay!r} exceeds the {MAX_STEPS} "
                f"steps a run counts at most")
        steps = self.horizon / self.h
        if not steps <= MAX_STEPS:
            raise DomainError(
                f"horizon {self.horizon!r} takes {steps!r} steps of h = {self.h!r}; "
                f"a run counts at most {MAX_STEPS}")
        if isinstance(self.g, Zero):
            raise DomainError(
                "the delayed term must be strictly positive; zero() is not")

        def checked_log(v: float) -> float:
            _positive(v, "history value")
            if not self.g.supports(u := math.log(v)):
                raise DomainError(
                    f"history value {v!r} lies outside the domain of the delayed term {self.g}")
            return u
        logs = np.fromiter(map(checked_log, self.history_samples()), float,
                           self.steps_per_delay + 1)
        logs.flags.writeable = False
        object.__setattr__(self, "log_history", logs)
        if not self.f.supports(float(logs[-1])):
            raise DomainError(
                f"initial value {self.history.at(1.0)!r} lies outside the domain "
                f"of the instantaneous term {self.f}")

    @property
    def h(self) -> float:
        return self.tau / self.steps_per_delay

    def history_samples(self) -> Iterator[float]:
        """History on the grid, oldest first: indices -N .. 0, one at a time."""
        n = self.steps_per_delay
        return (self.history.at(k / n) for k in range(n + 1))

    def planned_steps(self) -> int:
        # nudge past representation error when the horizon is an exact multiple
        return int(math.floor(self.horizon / self.h + 1e-9))

    def describe(self) -> str:
        return (f"x' = {self.f} + delayed {self.g}, tau={self.tau:g}, "
                f"h={self.h:g} ({self.steps_per_delay}/delay), "
                f"history {self.history}, horizon {self.horizon:g}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Grid log-states from index -N (oldest history point) onwards.

    ``log_states`` is a read-only float64 array: any float sequence given
    is converted, and a float64 array given is taken over and made
    read-only, not copied.  Trajectories compare by identity (``eq=False``);
    ``fingerprint()`` compares their states.
    """

    scenario: Scenario
    log_states: np.ndarray
    truncated: bool

    def __post_init__(self):
        states = np.asarray(self.log_states, dtype=np.float64)
        states.flags.writeable = False
        object.__setattr__(self, "log_states", states)

    @property
    def h(self) -> float:
        return self.scenario.h

    @property
    def n_start(self) -> int:
        return -self.scenario.steps_per_delay

    @property
    def forward_steps(self) -> int:
        """Completed steps past t = 0, the last grid index."""
        return self.n_start + len(self.log_states) - 1

    def state(self, n: int) -> float:
        """log x at grid index n."""
        if not self.n_start <= n <= self.forward_steps:
            raise DomainError(f"grid index {n} outside [{self.n_start}, {self.forward_steps}]")
        return float(self.log_states[n - self.n_start])

    def time(self, n: int) -> float:
        return n * self.h

    def indices(self) -> range:
        return range(self.n_start, self.forward_steps + 1)

    def fingerprint(self) -> str:
        """First 16 hex digits of the SHA-256 of a version tag, the states as
        little-endian float64 bytes and the truncation flag.

        Equal fingerprints mean bit-identical runs, whose states also print
        alike: repr round-trips every double but NaN, and states are never NaN.
        """
        digest = hashlib.sha256(_FINGERPRINT_TAG)
        digest.update(np.ascontiguousarray(self.log_states, dtype="<f8"))
        digest.update(b"truncated" if self.truncated else b"complete")
        return digest.hexdigest()[:16]


def simulate_euler(scenario: Scenario) -> Trajectory:
    """Run the recursion in the log domain up to the horizon or the cap."""
    windowed = (isinstance(scenario.f, Zero) and scenario.g.log_terms is not None
                and scenario.steps_per_delay >= WINDOW_MIN_STEPS)
    states, truncated = (_step_windows if windowed else _step_singly)(scenario)
    return Trajectory(scenario=scenario, log_states=states, truncated=truncated)


def _step_singly(scenario: Scenario) -> tuple[np.ndarray, bool]:
    """The states from the history on, one Euler step at a time, and
    whether the cap cut the run.

    Each step adds log f(x[n]) + log h and log g(x[n-N]) + log h to x[n]
    with two ``log_add``; f's is skipped when f is zero, since ``log_add``
    hands x[n] back for its -inf term.  A sum or a term past the cap
    truncates the run before a NaN state raises SimulationError; a NaN sum
    hides g's term from ``log_add``'s cap test, so that term is tested on
    its own.
    """
    log_h = log_scale(0.0, scenario.h)
    f_term = None if isinstance(scenario.f, Zero) else scenario.f.log_term
    g_term = scenario.g.log_term
    states = scenario.log_history.tolist()  # Python floats: numpy scalars slow each step
    state = states[-1]
    # each step reads the delayed state x[n-N], the next one of the
    # growing list not yet read
    for delayed in itertools.islice(states, scenario.planned_steps()):
        try:
            if f_term is not None:
                state = log_add(state, f_term(state) + log_h)
            state = log_add(state, g_term(delayed) + log_h)
        except HorizonExceeded:
            return np.array(states), True
        if state != state:      # NaN
            if g_term(delayed) + log_h > LOG_CAP:
                return np.array(states), True
            raise SimulationError(f"state became undefined after {len(states)} samples")
        states.append(state)
    return np.array(states), False


def _step_windows(scenario: Scenario) -> tuple[np.ndarray, bool]:
    """The states from the history on, one delay window at a time (f must
    be zero and g must have ``log_terms``), and whether the cap cut the run.

    The N steps after state n read only states n-N .. n, so a window is the
    running log-sum of its seed x[n] and the terms log h + log g(x[k]),
    computed in place in a state buffer that starts at the history and one
    window and doubles as needed, so a run cut early holds little memory.
    """
    n_delay = scenario.steps_per_delay
    log_h = log_scale(0.0, scenario.h)
    log_terms = scenario.g.log_terms
    planned = scenario.planned_steps()
    full, rest = divmod(planned, n_delay)
    widths = itertools.chain(itertools.repeat(n_delay, full), [rest] if rest else [])
    filled = len(scenario.log_history)
    total = filled + planned
    states = np.empty(min(total, 2 * filled))
    states[:filled] = scenario.log_history
    # overflow and NaN are caught by the cap test below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for width in widths:
            if filled + width > len(states):
                grown = np.empty(min(total, 2 * len(states)))
                grown[:filled] = states[:filled]
                states = grown
            seed = filled - 1
            window = states[seed:filled + width]
            np.add(log_terms(states[seed - n_delay:seed - n_delay + width]), log_h,
                   out=window[1:])
            np.logaddexp.accumulate(window, out=window)
            # logaddexp never decreases, so a NaN or a state over the cap
            # anywhere in the window leaves the last state failing this test
            if not window[-1] <= LOG_CAP:
                bad = int(np.argmin(window <= LOG_CAP))
                if math.isnan(window[bad]):
                    raise SimulationError(
                        f"state became undefined after {filled + bad - 1} samples")
                # keep only what was taken, not the rest of the buffer
                return states[:filled + bad - 1].copy(), True
            filled += width
    return states, False


def write_trajectory_csv(trajectory: Trajectory, target: IO[str],
                         functional: GrowthFunctional | None = None) -> None:
    """Write grid samples as CSV to the open text stream ``target``:
    ``n,t,log_x,functional,ratio``.

    The functional and ratio columns are filled for indices n > 0 whose
    state has reached the functional's lower reference, and left empty
    otherwise.  Floats are written with repr, so files round-trip exactly
    and identical runs produce identical bytes.
    """
    states = trajectory.log_states.tolist()
    values: dict[int, float] = {}
    if functional is not None:
        eligible = [(n, state) for n, state in zip(trajectory.indices(), states)
                    if n > 0 and state >= functional.log_lower]
        results = evaluate_many(functional, [state for _, state in eligible])
        values = {n: value for (n, _), value in zip(eligible, results)}

    h = trajectory.h
    target.write("n,t,log_x,functional,ratio\n")
    for n, state in zip(trajectory.indices(), states):
        t = n * h
        parts = [str(n), repr(t), repr(state)]
        if n in values:
            parts.append(repr(values[n]))
            parts.append(repr(values[n] / t))
        else:
            parts.extend(["", ""])
        target.write(",".join(parts) + "\n")
