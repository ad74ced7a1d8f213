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

All evaluation happens in the substituted variable w = log u, and each
family has exactly one route:
- an ode-time functional is its shape's own ``closed_ode`` (``power``,
  ``powerlog`` with power 1 and ``NestedLogProduct``, the shapes of the
  rate laws' comparison scales); a shape without one builds no ode-time
  functional.  It is evaluated and inverted (for envelopes) in closed
  form, and answers whether it diverges through ``reciprocal_diverges``;
- gain-time functionals are only evaluated, by quadrature: they are never
  inverted and have no divergence rule.
The quadrature is an adaptive Gauss-Legendre scheme on the transformed
integrand, which is smooth and bounded away from the blow-up scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .coefficients import (
    _SLACK, ClosedForm, ClosedInverse, CoefficientSpec, Zero, _exp, _positive,
)
from .errors import DomainError, HorizonExceeded, NumericError

__all__ = [
    "FunctionalKind", "GrowthFunctional", "NestedLogProduct",
    "ode_time", "gain_time", "default_ode_lower",
    "evaluate", "evaluate_many", "invert", "invert_many", "diverges",
    "QUAD_ABS_TOL", "QUAD_REL_TOL",
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

    def closed_ode(self, la: float) -> ClosedForm:
        # 1/phi integrates to the triple log of 1 + x
        lo = self._chain(la)[2]
        return lambda u: self._chain(u)[2] - lo

    def closed_ode_inverse(self, la: float) -> ClosedInverse:
        # V = l3 - l3(la) with s = log(1+x), l2 = log s, l3 = log l2, so
        # V' = sigmoid(u)/(s l2) and 1/V' <= 1.6 s l2 (u > 0.54 on the
        # domain); la2 = l2(la).  Forward: s within 5es, l2 within
        # 5e + 2e l2, l3 within 5e/l2 + 2e + 2e|l3|, the same at la, then
        # the subtraction and the scale, 3e|D|; over the slope that is
        # 1.6 e s(5 + 5 l2/la2 + l2(4 + 2|l3| + 2|l3(la)| + 3|D|)).
        # u = s + log(-expm1(-s)) from l3 = l3(la) + Y: l3 is off by
        # e(5/la2 + 2 + 2|l3(la)| + |Y| + |l3|), each exp passes that on
        # times its own value plus 2e, and du/ds <= 1.6, so
        # 1.6 e s(l2(5/la2 + 4 + 2|l3(la)| + |Y| + |l3|) + 2) + 3e + eu.
        # y -+ tol and the test: eR + 2eu, with R <= 1.6 s l2 |Y|.
        # Sum, with u <= s and |D| <= |Y|:
        # e s(18 + 16 l2/la2 + l2(13 + 5|l3| + 7|l3(la)| + 8|Y|)).
        _, la2, lo = self._chain(la)

        def inverse(y: float) -> tuple[float, float]:
            l3 = lo + y
            l2 = _exp(l3)
            s = _exp(l2)
            u = s + math.log(-math.expm1(-s))
            return u, _SLACK * s * (20.0 * (1.0 + l2 / la2)
                                    + l2 * (16.0 + 8.0 * (abs(l3) + abs(lo) + y)))
        return inverse

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
    so that the scaled functional tends to t itself.  ``closed_form`` is
    ``coeff.closed_ode(log_lower)`` (None for gain-time); both are attributes.
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
        object.__setattr__(self, "log_lower", math.log(self.lower))
        if not self.coeff.supports(self.log_lower):
            raise DomainError(
                f"lower reference {self.lower!r} lies outside the domain of {self.coeff}")
        ode = self.kind is FunctionalKind.ODE_TIME
        object.__setattr__(self, "closed_form",
                           self.coeff.closed_ode(self.log_lower) if ode else None)
        if ode and self.closed_form is None:
            raise DomainError(f"{self.coeff} has no closed-form ode-time functional")
        _positive(self.scale, "scale")

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


# ---------------------------------------------------------------------------
# quadrature on the transformed integrand

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-9

_GL7_NODES, _GL7_WEIGHTS = np.polynomial.legendre.leggauss(7)
_GL15_NODES, _GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)
# both rules have the node 0.0 exactly, so a panel evaluates its centre once
_GL15_CENTRE = _GL15_NODES.tolist().index(0.0)


def _integrand(functional: GrowthFunctional) -> Callable[[float], float]:
    """The gain-time integrand in w = log u."""
    coeff = functional.coeff

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
    f7 = [f15[_GL15_CENTRE] if t == 0.0 else fn(mid + half * t) for t in _GL7_NODES]
    s7 = half * float(np.dot(_GL7_WEIGHTS, f7))
    return s15, abs(s15 - s7)


def _adaptive(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """The integral of fn over [lo, hi], halving panels until each meets its budget.

    A panel that misses its budget splits for as long as a double lies
    strictly inside it, so a cusp at an end of the range (where each
    halving keeps the panel's relative error) is resolved down to the
    spacing of the doubles there.
    """
    total_width = hi - lo
    if total_width == 0.0:
        return 0.0
    acc = 0.0
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        est, err = _panel(fn, a, b)
        budget = QUAD_REL_TOL * abs(est) + QUAD_ABS_TOL * ((b - a) / total_width)
        if err <= budget:
            acc += est
            continue
        m = 0.5 * (a + b)
        if not a < m < b:
            raise NumericError(
                f"quadrature failed to converge on [{a:g}, {b:g}] "
                f"(estimate {est:g}, error {err:g})")
        stack.append((a, m))
        stack.append((m, b))
    return acc


# ---------------------------------------------------------------------------
# evaluation; arguments are log x throughout

def _check_argument(la: float, log_x: float) -> None:
    if math.isnan(log_x) or math.isinf(log_x):
        raise DomainError(f"functional argument must be finite, got {log_x!r}")
    if log_x < la:
        raise DomainError(
            f"argument log x = {log_x!r} lies below the lower reference (log {la:g})")


def _evaluator(functional: GrowthFunctional) -> Callable[[float], float]:
    """F(x)/scale as a function of log x, for arguments already checked.

    The route follows the kind: ``closed_form`` for ode-time, quadrature
    for gain-time (whose ``closed_form`` is None).  The lower-limit work
    (the integrand) is done once here, so loops over many arguments pay
    only for the upper limit.
    """
    la, scale, closed = functional.log_lower, functional.scale, functional.closed_form
    if closed is None:
        fn = _integrand(functional)
        return lambda log_x: _adaptive(fn, la, log_x) / scale
    return lambda log_x: 0.0 if log_x == la else closed(log_x) / scale


def evaluate(functional: GrowthFunctional, log_x: float) -> float:
    """F(x)/scale at log x; log x must not fall below the lower reference."""
    _check_argument(functional.log_lower, log_x)
    return _evaluator(functional)(log_x)


def evaluate_many(functional: GrowthFunctional, log_xs: Sequence[float]) -> list[float]:
    """Evaluate at many points, checking them and doing the lower-limit work once.

    A finite sum and a least point at or above the lower reference clear
    every argument; otherwise each is checked in turn, so the first bad
    one raises what ``evaluate`` raises.  The values are those of
    ``evaluate``, bit for bit, except for sorted gain-time arguments:
    those are handled incrementally, one quadrature per gap, so a whole
    trajectory costs what its largest argument costs.
    """
    points = list(map(float, log_xs))
    if not points:
        return []
    la = functional.log_lower
    if not (math.isfinite(sum(points)) and min(points) >= la):
        for v in points:
            _check_argument(la, v)
    if functional.kind is FunctionalKind.ODE_TIME:
        closed, scale = functional.closed_form, functional.scale
        return [0.0 if v == la else closed(v) / scale for v in points]
    value_at = _evaluator(functional)
    if not all(b >= a for a, b in zip(points, points[1:])):
        return [value_at(v) for v in points]
    fn, scale = _integrand(functional), functional.scale
    out = [value_at(points[0])]
    for prev, cur in zip(points, points[1:]):
        if cur == prev:
            out.append(out[-1])
        else:
            out.append(out[-1] + _adaptive(fn, prev, cur) / scale)
    return out


INVERT_LOG_RANGE = 1e300
# la + 2**_TOP_DOUBLING passes INVERT_LOG_RANGE for every lower reference
# (|la| < 746 for a positive double), so no bracket is longer
_TOP_DOUBLING = 1 + int(math.log2(INVERT_LOG_RANGE))

# no midpoint certified: (go right below, stop above, stop below, go left above)
_NO_ZONES = (-math.inf, math.inf, -math.inf, math.inf)


def _zones(inverse: ClosedInverse, y: float, tol: float,
           scale: float) -> tuple[float, float, float, float]:
    """Where a probe's verdict on y is certified without making it.

    With u-+ the shape's inverses at y -+ tol and slack the larger of their
    slacks (see ``coefficients.closed_ode_inverse``), a point below
    u- - slack falls short of y by more than tol, one above u+ + slack
    passes it by more than tol, and one strictly inside
    (u- + slack, u+ - slack) is within tol.  Nothing is certified when
    y - tol <= 0 or either inverse is missing or not finite.
    """
    below = y - tol
    if not below > 0.0:
        return _NO_ZONES
    ends = inverse(below * scale), inverse((y + tol) * scale)
    if None in ends:
        return _NO_ZONES
    (u_lo, slack_lo), (u_hi, slack_hi) = ends
    slack = max(slack_lo, slack_hi)
    if not (math.isfinite(u_lo - slack) and math.isfinite(u_hi + slack)):
        return _NO_ZONES
    return u_lo - slack, u_lo + slack, u_hi - slack, u_hi + slack


def invert_many(functional: GrowthFunctional, ys: Sequence[float]) -> list[float]:
    """log x such that F(x)/scale = y, for each y; inf where that is past the log range.

    Each value is what ``invert`` returns for it, bit for bit, with inf
    where ``invert`` raises HorizonExceeded; it depends on that value
    alone.  Only an ode-time functional, a closed form, is inverted; a
    gain-time one raises DomainError.  That, every value, and whether F
    diverges are checked before the first probe.

    The shape's exact inverse at y -+ tol, with its rounding slack,
    decides every point farther than the slack from the tolerance
    window's edges (see ``_zones``), with the verdict a probe would give.
    Those verdicts pick the bracket end la + 2^j without a probe unless
    it lies near the window, and a value whose window starts past the log
    range is inf at once.  Without them (y - tol <= 0, or an inverse that
    is not finite), one probe at the last end inside the range tells
    whether the value is past it; this is the one step that assumes F
    nondecreasing.  The bisection then probes only near the window.
    """
    if functional.kind is not FunctionalKind.ODE_TIME:
        raise DomainError(f"{functional.describe()} has no closed form to invert")
    values = list(ys)
    for y in values:
        if math.isnan(y) or y < 0.0:
            raise DomainError(f"cannot invert at {y!r}: values are nonnegative")
    if any(y < math.inf for y in values) and not diverges(functional):
        raise DomainError(
            f"{functional.describe()} is bounded; its inverse is not defined for all values")
    la, scale = functional.log_lower, functional.scale
    value_at = _evaluator(functional)
    inverse = functional.coeff.closed_ode_inverse(la)
    out = []
    for y in values:
        if y == 0.0 or y == math.inf:
            out.append(la if y == 0.0 else math.inf)
            continue
        tol = 1e-9 * (1.0 + abs(y))
        right, inside_lo, inside_hi, left = _zones(inverse, y, tol, scale)
        # the least j whose end la + 2^j is past the log range or reaches y;
        # right is -inf where the inverse certifies nothing
        if right > INVERT_LOG_RANGE or (
                right == -math.inf and value_at(la + 2.0 ** (_TOP_DOUBLING - 1)) < y):
            j = _TOP_DOUBLING      # every end inside the range falls short
        elif right > la + 1.0:
            j = math.frexp(right - la)[1] - 1   # every end below right falls short
        else:
            j = 0
        hi = la + 2.0 ** j
        while hi <= INVERT_LOG_RANGE and hi <= left and (hi < right or value_at(hi) < y):
            j += 1
            hi = la + 2.0 ** j
        if hi > INVERT_LOG_RANGE:
            out.append(math.inf)
            continue
        lo = la
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break   # no double lies strictly inside the bracket
            if mid < right:
                lo = mid
            elif mid > left:
                hi = mid
            elif inside_lo < mid < inside_hi:
                break
            else:
                val = value_at(mid)
                if abs(val - y) <= tol:
                    break
                if val < y:
                    lo = mid
                else:
                    hi = mid
        out.append(mid)
    return out


def invert(functional: GrowthFunctional, y: float) -> float:
    """log x such that F(x)/scale = y, for diverging closed-form functionals.

    The one-value case of ``invert_many``: bisection on [la, la + 2^j],
    for the least j >= 0 with la + 2^j past the log range or
    F(la + 2^j)/scale >= y, until the residual is within
    1e-9 * (1 + |y|) or no double lies strictly inside the bracket, where
    F's step between adjacent doubles of log x is coarser than the
    tolerance.  A bracket past log x = 1e300 means the inverse is not
    representable and raises HorizonExceeded; a gain-time functional
    raises DomainError.
    """
    (log_x,) = invert_many(functional, [y])
    if log_x == math.inf:
        where = "infinity is not representable" if y == math.inf else \
            f"{y!r} exceeds log range {INVERT_LOG_RANGE:g}"
        raise HorizonExceeded(f"inverse of {functional.describe()} at {where}")
    return log_x


def diverges(functional: GrowthFunctional) -> bool:
    """Whether an ode-time F(x) grows without bound as x does.

    Gain-time functionals are only evaluated, so they raise DomainError.
    """
    if functional.kind is not FunctionalKind.ODE_TIME:
        raise DomainError(f"{functional.describe()} has no divergence rule")
    return functional.coeff.reciprocal_diverges()
