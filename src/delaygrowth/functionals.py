"""Growth functionals: the integrals whose values advance like clock time.

Two families are used.  The ode-time functional of a shape phi,

    F(x) = integral from lower to x of du / phi(u),

is the time an undelayed comparison flow needs to climb from the lower
reference to x.  The gain-time functional of a delayed term g,

    F(x) = integral from 1 to x of du / (u * log1p(g(u)/u)),

counts delay windows instead.  Under the recursion y <- y + g(y) it
advances by about 1 per step when g(u)/u is slowly varying in log u (the
RV1 shapes), and by log(b)/(b-1) per step for g = x^b, where log y is
multiplied by b each step.  Verification reduces trajectories to sequences
F(x_n)/(n h) and compares them against predicted limits, so everything
here must stay finite and accurate while x itself is only represented by
its logarithm.

All evaluation happens in the substituted variable w = log u.  Shapes with
known antiderivatives (most of the catalog) are integrated in closed form
by their own ``closed_ode``/``closed_gain`` methods, and answer whether the
functional diverges through ``reciprocal_diverges``/``gain_diverges``; the
rest go through an adaptive Gauss-Legendre scheme on the transformed
integrand, which is smooth and bounded away from the blow-up scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .coefficients import ClosedForm, CoefficientSpec, Zero, _exp, _positive
from .errors import DomainError, HorizonExceeded, NumericError

__all__ = [
    "FunctionalKind", "GrowthFunctional", "NestedLogProduct",
    "ode_time", "gain_time", "default_ode_lower",
    "evaluate", "evaluate_many", "invert", "diverges",
    "QUAD_ABS_TOL", "QUAD_REL_TOL", "QUAD_MAX_DEPTH",
]


def _softplus(u: float) -> float:
    """log(1 + e^u) without overflow; exact u for large u."""
    if u > 0:
        return u + math.log1p(math.exp(-u))
    return math.log1p(math.exp(u))


@dataclass(frozen=True)
class NestedLogProduct(CoefficientSpec):
    """phi(x) = (1+x) * log(1+x) * log log(1+x).

    The comparison scale for the fastest supported regimes, the triple log
    of Hardy's logarithmico-exponential scale: the reciprocal integrates
    to log log log(1+x), which grows without bound but slower than any
    catalog shape.  Defined where log log(1+x) is positive: x > e - 1.
    """

    def _chain(self, u: float) -> tuple[float, float, float]:
        # log(1+x), log log(1+x) and log log log(1+x), with x = e^u
        log1 = _softplus(u)
        log2 = math.log(log1) if log1 > 0 else -math.inf
        return log1, log2, math.log(log2) if log2 > 0 else -math.inf

    def supports(self, u: float) -> bool:
        return self._chain(u)[1] > 0

    def log_term(self, u: float) -> float:
        chain = self._chain(u)
        if chain[1] <= 0:
            return -math.inf
        return sum(chain)

    def reciprocal_diverges(self) -> bool:
        return True

    def gain_diverges(self) -> bool:
        # g(u)/u grows like the iterated logs, so 1/log1p(g(u)/u) decays
        # no faster than 1/log w and its integral over w diverges
        return True

    def closed_ode(self, la: float) -> ClosedForm:
        # 1/phi integrates to the triple log of 1 + x
        lo = self._chain(la)[2]
        return lambda u: self._chain(u)[2] - lo

    @property
    def domain_threshold(self) -> float:
        return math.exp(1.0) - 1.0

    def __str__(self) -> str:
        return "nestedlog(3)"


class FunctionalKind(Enum):
    ODE_TIME = "ode-time"
    GAIN_TIME = "gain-time"


@dataclass(frozen=True)
class GrowthFunctional:
    """A growth functional F together with its lower reference and scale.

    Reported values are F(x) / scale; the scale carries regime constants
    so that the scaled functional tends to t itself.
    """

    kind: FunctionalKind
    coeff: CoefficientSpec
    lower: float
    scale: float = 1.0

    def __post_init__(self):
        if isinstance(self.coeff, Zero):
            raise DomainError("a growth functional needs a nonvanishing shape")
        _positive(self.lower, "lower reference")
        if self.kind is FunctionalKind.GAIN_TIME and self.lower < 1.0:
            raise DomainError("gain-time functionals start at 1 or above")
        if not self.coeff.supports(math.log(self.lower)):
            raise DomainError(
                f"lower reference {self.lower!r} lies outside the domain of {self.coeff}")
        _positive(self.scale, "scale")

    @property
    def log_lower(self) -> float:
        return math.log(self.lower)

    def describe(self) -> str:
        text = f"{self.kind.value}[{self.coeff}, lower={self.lower:g}"
        if self.scale != 1.0:
            text += f", scale={self.scale:g}"
        return text + "]"


def ode_time(phi: CoefficientSpec, lower: float, scale: float = 1.0) -> GrowthFunctional:
    return GrowthFunctional(FunctionalKind.ODE_TIME, phi, lower, scale)


def gain_time(g: CoefficientSpec) -> GrowthFunctional:
    return GrowthFunctional(FunctionalKind.GAIN_TIME, g, 1.0)


def default_ode_lower(phi: CoefficientSpec, history_floor: float) -> float:
    """A lower reference safely inside phi's domain and under the history."""
    return max(history_floor, phi.domain_threshold, math.e)


def _closed(functional: GrowthFunctional) -> ClosedForm | None:
    """The shape's closed form of the unscaled functional in log x, or None."""
    coeff, la = functional.coeff, functional.log_lower
    if functional.kind is FunctionalKind.ODE_TIME:
        return coeff.closed_ode(la)
    return coeff.closed_gain(la)


# ---------------------------------------------------------------------------
# quadrature on the transformed integrand

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-9
QUAD_MAX_DEPTH = 60

_GL7_NODES, _GL7_WEIGHTS = np.polynomial.legendre.leggauss(7)
_GL15_NODES, _GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _integrand(functional: GrowthFunctional) -> Callable[[float], float]:
    coeff = functional.coeff
    if functional.kind is FunctionalKind.ODE_TIME:
        def fn(w: float) -> float:
            return _exp(w - coeff.value_log(w))
        return fn

    def fn(w: float) -> float:
        d = coeff.value_log(w) - w  # log of g(u)/u
        den = _softplus(d) if d > -math.inf else 0.0
        if den <= 0.0:
            return math.inf
        return 1.0 / den
    return fn


def _panel(fn: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    f15 = [fn(mid + half * t) for t in _GL15_NODES]
    s15 = half * float(np.dot(_GL15_WEIGHTS, f15))
    f7 = [fn(mid + half * t) for t in _GL7_NODES]
    s7 = half * float(np.dot(_GL7_WEIGHTS, f7))
    return s15, abs(s15 - s7)


def _adaptive(fn: Callable[[float], float], lo: float, hi: float) -> float:
    total_width = hi - lo
    if total_width == 0.0:
        return 0.0
    acc = 0.0
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        est, err = _panel(fn, a, b)
        budget = QUAD_REL_TOL * abs(est) + QUAD_ABS_TOL * ((b - a) / total_width)
        if err <= budget:
            acc += est
        elif depth >= QUAD_MAX_DEPTH:
            raise NumericError(
                f"quadrature failed to converge on [{a:g}, {b:g}] "
                f"(estimate {est:g}, error {err:g})")
        else:
            m = 0.5 * (a + b)
            stack.append((a, m, depth + 1))
            stack.append((m, b, depth + 1))
    return acc


# ---------------------------------------------------------------------------
# evaluation; arguments are log x throughout

def _check_argument(la: float, log_x: float) -> None:
    if math.isnan(log_x) or math.isinf(log_x):
        raise DomainError(f"functional argument must be finite, got {log_x!r}")
    if log_x < la:
        raise DomainError(
            f"argument log x = {log_x!r} lies below the lower reference (log {la:g})")


def _evaluator(functional: GrowthFunctional,
               closed: ClosedForm | None) -> Callable[[float], float]:
    """F(x)/scale as a function of log x, for arguments already checked.

    ``closed`` is ``_closed(functional)``.  The lower-limit work (log of the
    lower reference, the closed form's lower term, the integrand) is done
    once here, so loops over many arguments pay only for the upper limit.
    """
    la, scale = functional.log_lower, functional.scale
    if closed is None:
        fn = _integrand(functional)
        return lambda log_x: _adaptive(fn, la, log_x) / scale
    return lambda log_x: 0.0 if log_x == la else closed(log_x) / scale


def evaluate(functional: GrowthFunctional, log_x: float) -> float:
    """F(x)/scale at log x; log x must not fall below the lower reference."""
    _check_argument(functional.log_lower, log_x)
    return _evaluator(functional, _closed(functional))(log_x)


def evaluate_many(functional: GrowthFunctional, log_xs: Sequence[float]) -> list[float]:
    """Evaluate at many points, checking them and doing the lower-limit work once.

    The values are those of ``evaluate``, bit for bit, except for sorted
    quadrature arguments: those are handled incrementally, one panel run
    per gap, so a whole trajectory costs what its largest argument costs.
    """
    points = [float(v) for v in log_xs]
    if not points:
        return []
    la = functional.log_lower
    for v in points:
        _check_argument(la, v)
    closed = _closed(functional)
    value_at = _evaluator(functional, closed)
    ascending = all(b >= a for a, b in zip(points, points[1:]))
    if closed is not None or not ascending:
        return [value_at(v) for v in points]
    fn, scale = _integrand(functional), functional.scale
    out = [value_at(points[0])]
    for prev, cur in zip(points, points[1:]):
        if cur == prev:
            out.append(out[-1])
        else:
            out.append(out[-1] + _adaptive(fn, prev, cur) / scale)
    return out


INVERT_MAX_ITERS = 500
INVERT_LOG_RANGE = 1e300
# la + 2**_TOP_DOUBLING passes INVERT_LOG_RANGE for every lower reference
# (|la| < 746 for a positive double), so no bracket is longer
_TOP_DOUBLING = 1 + int(math.log2(INVERT_LOG_RANGE))


def _bracket_exponent(value_at: Callable[[float], float], la: float, y: float,
                      gallop: bool) -> int:
    """The least j >= 0 with la + 2^j past the log range or F(la + 2^j) >= y.

    F is ``value_at``, a function of log x.  That j is where a scan over
    j = 0, 1, 2, ... stops.  With ``gallop`` the search doubles j
    (0, 1, 2, 4, ...) and bisects the last doubling instead; F is
    nondecreasing, so it stops at the same j after O(log j) probes.  That
    pays where a probe costs the same at any argument (a closed form).  A
    quadrature probe costs more the longer its range, and the gallop can
    probe up to twice the scan's j, so quadrature scans.
    """
    def reaches(j: int) -> bool:
        hi = la + 2.0 ** j
        return hi > INVERT_LOG_RANGE or not value_at(hi) < y

    if not gallop:
        j = 0
        while not reaches(j):
            j += 1
        return j
    short, j = -1, 0  # every j <= short falls short of y
    while not reaches(j):
        short, j = j, min(max(2 * j, 1), _TOP_DOUBLING)
    while j - short > 1:
        mid = (short + j) // 2
        if reaches(mid):
            j = mid
        else:
            short = mid
    return j


def invert(functional: GrowthFunctional, y: float) -> float:
    """log x such that F(x)/scale = y, for diverging functionals.

    Bisection on [la, la + 2^j], for the least j >= 0 with
    F(la + 2^j)/scale >= y, until the residual is within 1e-9 * (1 + |y|).
    For a closed form that j is found by galloping over the doubling
    exponent and bisecting it; quadrature scans j = 0, 1, 2, ... (see
    ``_bracket_exponent``).  Both give the same bracket, so the same
    result.  A bracket past log x = 1e300 means the inverse is not
    representable and raises HorizonExceeded.
    """
    if math.isnan(y) or y < 0.0:
        raise DomainError(f"cannot invert at {y!r}: values are nonnegative")
    if math.isinf(y):
        raise HorizonExceeded(
            f"inverse of {functional.describe()} at infinity is not representable")
    if not diverges(functional):
        raise DomainError(
            f"{functional.describe()} is bounded; its inverse is not defined for all values")
    la = functional.log_lower
    if y == 0.0:
        return la
    tol = 1e-9 * (1.0 + abs(y))
    closed = _closed(functional)
    value_at = _evaluator(functional, closed)
    hi = la + 2.0 ** _bracket_exponent(value_at, la, y, gallop=closed is not None)
    if hi > INVERT_LOG_RANGE:
        raise HorizonExceeded(
            f"inverse of {functional.describe()} at {y!r} exceeds log range {INVERT_LOG_RANGE:g}")
    lo = la
    for _ in range(INVERT_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        val = value_at(mid)
        if abs(val - y) <= tol:
            return mid
        if val < y:
            lo = mid
        else:
            hi = mid
    raise NumericError(f"inversion of {functional.describe()} at {y!r} did not converge")


def diverges(functional: GrowthFunctional) -> bool:
    """Whether F(x) grows without bound as x does."""
    if functional.kind is FunctionalKind.ODE_TIME:
        return functional.coeff.reciprocal_diverges()
    return functional.coeff.gain_diverges()
