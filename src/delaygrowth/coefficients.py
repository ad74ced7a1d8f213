"""The closed catalog of coefficient shapes for the two right-hand-side terms.

A scenario's instantaneous term f and delayed term g are each drawn from a
small closed family.  Every shape knows how to evaluate itself analytically
in the log domain: given u = log x it returns log F(x) directly, so states
of any magnitude cost one float expression; ``log_terms`` does the same
for an array of u, bit for bit.  Shapes also expose their
domain threshold (the scale above which they are positive and continuous),
the scale beyond which they are nondecreasing, and a textual syntax used by
config files:

    zero | const(c) | power(c,beta) | linear(C) | xexplogpow(c,alpha)
         | explogpow(c,alpha) | powerlog(c,beta,gamma)

Each shape owns its mathematics: ``regime()`` names the growth regime that
fixes which rate law applies, ``reciprocal_diverges()`` and
``gain_diverges()`` say whether the ode-time and gain-time functionals of
the shape grow without bound, and ``closed_ode``/``closed_gain`` integrate
them in closed form where an antiderivative is known.  ``classify_regime``
is the function form of ``regime()``, and ``limit_probe`` renders an
empirical verdict on a limit of a ratio of two shapes along a ladder of
log-scales; predictions use it to check their dominance hypotheses before
committing to a rate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammainc

from .errors import DomainError

__all__ = [
    "CoefficientSpec", "Zero", "Constant", "Power", "Linear",
    "LinTimesExpLogPow", "ExpLogPow", "PowerLog",
    "Regime", "RegimeKind", "classify_regime",
    "LimitKind", "LimitVerdict", "limit_probe", "DEFAULT_PROBE_SCALES",
    "parse_coefficient",
]


def _pow(base: float, exponent: float) -> float:
    """Float power saturating to inf instead of raising on overflow."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf
    except ZeroDivisionError:  # 0.0 ** negative
        return math.inf


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def _positive(v: float, what: str) -> None:
    _require(isinstance(v, (int, float)) and math.isfinite(v) and v > 0,
             f"{what} must be positive and finite, got {v!r}")


# ---------------------------------------------------------------------------
# growth regimes

class RegimeKind(Enum):
    SUBLINEAR_RV = "sublinear-rv"
    LINEAR_RV = "linear-rv"
    RV1_SUPERLINEAR = "rv1-superlinear"
    POLY_SUPERLINEAR = "poly-superlinear"
    FASTER_THAN_POLY = "faster-than-poly"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Regime:
    """A growth regime, with the index the rate law depends on.

    ``index`` holds the power for the sublinear and polynomial regimes, the
    slope for the linear regime, and the log-exponent for the
    faster-than-poly regime; the RV1 regime carries none.
    """

    kind: RegimeKind
    index: float | None = None

    def describe(self) -> str:
        if self.index is None:
            return self.kind.value
        return f"{self.kind.value} (index {self.index!r})"


_UNSUPPORTED = Regime(RegimeKind.UNSUPPORTED)


# ---------------------------------------------------------------------------
# closed forms
#
# Everything is expressed in u = log x.  ``closed_ode`` and ``closed_gain``
# return the unscaled integral of the matching functional over [la, u], or
# None when only quadrature will do.

_SQRT_PI_HALF = 0.5 * math.sqrt(math.pi)


def _closed_power(c: float, beta: float, la: float, u: float) -> float:
    if beta == 1.0:
        return (u - la) / c
    k = 1.0 - beta
    return (_exp(k * u) - _exp(k * la)) / (c * k)


@dataclass(frozen=True)
class CoefficientSpec:
    """Base for the catalog.  Subclasses carry the parameters.

    Subclasses set ``_MIN_LOG_ARG`` (log of the smallest admissible
    argument) and ``_MIN_INCLUSIVE`` (whether that bound itself is
    admissible), implement ``log_term`` / ``value`` and the two divergence
    rules, and override ``regime`` and the closed forms where they have
    them.
    """

    _MIN_LOG_ARG = -math.inf
    _MIN_INCLUSIVE = False

    def log_term(self, u: float) -> float:
        raise NotImplementedError

    def log_terms(self, us: np.ndarray) -> np.ndarray:
        """``log_term`` at each u of a float array, mapped over Python floats.

        Shapes affine in u override this with array arithmetic; numpy's
        ``log``, ``exp``, ``log1p`` and ``**`` do not round like the math
        module's, so the other shapes keep the scalar formula.
        """
        return np.array([self.log_term(u) for u in us.tolist()])

    def value(self, x: float) -> float:
        """Direct float evaluation, for cross-checks and direct-mode runs."""
        raise NotImplementedError

    def supports(self, u: float) -> bool:
        """Whether log x = u lies in this shape's domain."""
        if self._MIN_INCLUSIVE:
            return u >= self._MIN_LOG_ARG
        return u > self._MIN_LOG_ARG

    def value_log(self, u: float) -> float:
        """log F(x) at u = log x, with the domain enforced."""
        if not self.supports(u):
            raise DomainError(f"{self} is undefined at log x = {u!r}")
        return self.log_term(u)

    @property
    def domain_threshold(self) -> float:
        """x0 >= 0 such that the shape is positive and continuous on (x0, inf)."""
        if self._MIN_LOG_ARG == -math.inf:
            return 0.0
        return math.exp(self._MIN_LOG_ARG)

    @property
    def monotone_from(self) -> float:
        """Scale beyond which the shape is nondecreasing."""
        return 0.0

    def regime(self) -> Regime:
        """The growth regime of this shape as a delayed term."""
        return _UNSUPPORTED

    def reciprocal_diverges(self) -> bool:
        """Whether the integral of 1/F over [a, inf) diverges.

        This is the no-finite-time-explosion condition for an instantaneous
        term, and the divergence rule for the ode-time functional.
        """
        raise DomainError(f"no divergence rule for {self!r}")

    def gain_diverges(self) -> bool:
        """Whether the gain-time functional of this shape grows without bound."""
        raise DomainError(f"no divergence rule for {self!r}")

    def closed_ode(self, la: float, u: float) -> float | None:
        """Integral of e^w / F(e^w) over [la, u], or None without a closed form."""
        return None

    def closed_gain(self, la: float, u: float) -> float | None:
        """Integral of 1 / log1p(F(e^w) / e^w) over [la, u], or None."""
        return None


@dataclass(frozen=True)
class Zero(CoefficientSpec):
    """F(x) = 0.  Admissible only as an instantaneous term."""

    _MIN_INCLUSIVE = True

    def log_term(self, u: float) -> float:
        return -math.inf

    def value(self, x: float) -> float:
        return 0.0

    def regime(self) -> Regime:
        raise DomainError("the delayed term must not vanish identically")

    def reciprocal_diverges(self) -> bool:
        raise DomainError("reciprocal of the zero shape is undefined")

    def __str__(self) -> str:
        return "zero"


@dataclass(frozen=True)
class Constant(CoefficientSpec):
    """F(x) = level."""

    level: float

    def __post_init__(self):
        _positive(self.level, "const level")

    def log_term(self, u: float) -> float:
        return math.log(self.level)

    def log_terms(self, us: np.ndarray) -> np.ndarray:
        return np.full(len(us), math.log(self.level))

    def value(self, x: float) -> float:
        return self.level

    def regime(self) -> Regime:
        return Regime(RegimeKind.SUBLINEAR_RV, 0.0)

    def reciprocal_diverges(self) -> bool:
        return True

    def gain_diverges(self) -> bool:
        return True

    def closed_ode(self, la: float, u: float) -> float:
        return (_exp(u) - _exp(la)) / self.level

    def __str__(self) -> str:
        return f"const({self.level!r})"


@dataclass(frozen=True)
class Power(CoefficientSpec):
    """F(x) = coefficient * x**exponent with exponent >= 0.

    Negative exponents are rejected: every non-constant catalog member is
    eventually nondecreasing, which a decaying power would break.
    """

    coefficient: float
    exponent: float

    def __post_init__(self):
        _positive(self.coefficient, "power coefficient")
        _require(math.isfinite(self.exponent) and self.exponent >= 0,
                 f"power exponent must be nonnegative, got {self.exponent!r}")

    def log_term(self, u: float) -> float:
        return math.log(self.coefficient) + self.exponent * u

    def log_terms(self, us: np.ndarray) -> np.ndarray:
        return math.log(self.coefficient) + self.exponent * us

    def value(self, x: float) -> float:
        return self.coefficient * _pow(x, self.exponent)

    def regime(self) -> Regime:
        if self.exponent < 1:
            return Regime(RegimeKind.SUBLINEAR_RV, self.exponent)
        if self.exponent == 1:
            return Regime(RegimeKind.LINEAR_RV, self.coefficient)
        return Regime(RegimeKind.POLY_SUPERLINEAR, self.exponent)

    def reciprocal_diverges(self) -> bool:
        return self.exponent <= 1

    def gain_diverges(self) -> bool:
        return True

    def closed_ode(self, la: float, u: float) -> float:
        return _closed_power(self.coefficient, self.exponent, la, u)

    def closed_gain(self, la: float, u: float) -> float | None:
        if self.exponent == 1.0:
            return (u - la) / math.log1p(self.coefficient)
        return None

    def __str__(self) -> str:
        return f"power({self.coefficient!r},{self.exponent!r})"


@dataclass(frozen=True)
class Linear(CoefficientSpec):
    """F(x) = slope * x."""

    slope: float

    def __post_init__(self):
        _positive(self.slope, "linear slope")

    def log_term(self, u: float) -> float:
        return math.log(self.slope) + u

    def log_terms(self, us: np.ndarray) -> np.ndarray:
        return math.log(self.slope) + us

    def value(self, x: float) -> float:
        return self.slope * x

    def regime(self) -> Regime:
        return Regime(RegimeKind.LINEAR_RV, self.slope)

    def reciprocal_diverges(self) -> bool:
        return True

    def gain_diverges(self) -> bool:
        return True

    def closed_ode(self, la: float, u: float) -> float:
        return (u - la) / self.slope

    def closed_gain(self, la: float, u: float) -> float:
        return (u - la) / math.log1p(self.slope)

    def __str__(self) -> str:
        return f"linear({self.slope!r})"


@dataclass(frozen=True)
class LinTimesExpLogPow(CoefficientSpec):
    """F(x) = coefficient * x * exp((log x)**exponent), exponent > 0.

    Defined for x >= 1 ((log x)**alpha needs a nonnegative base).  Grows
    faster than any linear map and slower than any power above 1 when
    0 < exponent < 1.
    """

    coefficient: float
    exponent: float

    _MIN_LOG_ARG = 0.0
    _MIN_INCLUSIVE = True

    def __post_init__(self):
        _positive(self.coefficient, "xexplogpow coefficient")
        _positive(self.exponent, "xexplogpow exponent")

    def log_term(self, u: float) -> float:
        return math.log(self.coefficient) + u + _pow(u, self.exponent)

    def value(self, x: float) -> float:
        if x < 1.0:
            raise DomainError(f"{self} is undefined at x = {x!r}")
        return self.coefficient * x * _exp(_pow(math.log(x), self.exponent))

    @property
    def monotone_from(self) -> float:
        return 1.0

    def regime(self) -> Regime:
        if 0 < self.exponent < 1:
            return Regime(RegimeKind.RV1_SUPERLINEAR)
        return _UNSUPPORTED

    def reciprocal_diverges(self) -> bool:
        # 1/F integrates like exp(-(log u)^alpha) d(log u): finite
        return False

    def gain_diverges(self) -> bool:
        return self.exponent <= 1.0

    def closed_ode(self, la: float, u: float) -> float:
        # integrand e^{-w^alpha}/c; substitute s = w^alpha
        a = 1.0 / self.exponent
        lo = float(gammainc(a, _pow(la, self.exponent)))
        hi = float(gammainc(a, _pow(u, self.exponent)))
        return math.gamma(a) * a * (hi - lo) / self.coefficient

    def __str__(self) -> str:
        return f"xexplogpow({self.coefficient!r},{self.exponent!r})"


@dataclass(frozen=True)
class ExpLogPow(CoefficientSpec):
    """F(x) = coefficient * exp((log x)**exponent), exponent > 0.

    For exponent > 1 this outruns every power of x while staying below any
    exponential; defined for x >= 1.
    """

    coefficient: float
    exponent: float

    _MIN_LOG_ARG = 0.0
    _MIN_INCLUSIVE = True

    def __post_init__(self):
        _positive(self.coefficient, "explogpow coefficient")
        _positive(self.exponent, "explogpow exponent")

    def log_term(self, u: float) -> float:
        return math.log(self.coefficient) + _pow(u, self.exponent)

    def value(self, x: float) -> float:
        if x < 1.0:
            raise DomainError(f"{self} is undefined at x = {x!r}")
        return self.coefficient * _exp(_pow(math.log(x), self.exponent))

    @property
    def monotone_from(self) -> float:
        return 1.0

    def regime(self) -> Regime:
        if self.exponent > 1:
            return Regime(RegimeKind.FASTER_THAN_POLY, self.exponent)
        return _UNSUPPORTED

    def reciprocal_diverges(self) -> bool:
        return self.exponent <= 1

    def gain_diverges(self) -> bool:
        return self.exponent <= 1.0

    def closed_ode(self, la: float, u: float) -> float | None:
        if self.exponent == 2.0:
            # integrand e^{w - w^2}/c; complete the square
            front = math.exp(0.25) * _SQRT_PI_HALF / self.coefficient
            return front * (math.erf(u - 0.5) - math.erf(la - 0.5))
        return None

    def __str__(self) -> str:
        return f"explogpow({self.coefficient!r},{self.exponent!r})"


@dataclass(frozen=True)
class PowerLog(CoefficientSpec):
    """F(x) = coefficient * x**power * (log x)**log_power.

    Defined for x > 1 so the log factor stays positive.  Requires either
    power > 0, or power = 0 with log_power >= 0, keeping the shape
    eventually nondecreasing.
    """

    coefficient: float
    power: float
    log_power: float

    _MIN_LOG_ARG = 0.0
    _MIN_INCLUSIVE = False

    def __post_init__(self):
        _positive(self.coefficient, "powerlog coefficient")
        _require(math.isfinite(self.power) and math.isfinite(self.log_power),
                 "powerlog exponents must be finite")
        _require(self.power > 0 or (self.power == 0 and self.log_power >= 0),
                 "powerlog needs power > 0, or power = 0 with log_power >= 0")

    def log_term(self, u: float) -> float:
        return (math.log(self.coefficient) + self.power * u
                + self.log_power * math.log(u))

    def value(self, x: float) -> float:
        if x <= 1.0:
            raise DomainError(f"{self} is undefined at x = {x!r}")
        return self.coefficient * _pow(x, self.power) * _pow(math.log(x), self.log_power)

    @property
    def monotone_from(self) -> float:
        # derivative sign is that of power*log(x) + log_power
        if self.power > 0:
            return max(1.0, _exp(-self.log_power / self.power))
        return 1.0

    def regime(self) -> Regime:
        if self.power == 1 and self.log_power > 0:
            return Regime(RegimeKind.RV1_SUPERLINEAR)
        if self.power > 1:
            return Regime(RegimeKind.POLY_SUPERLINEAR, self.power)
        return _UNSUPPORTED

    def reciprocal_diverges(self) -> bool:
        if self.power < 1:
            return True
        if self.power == 1:
            return self.log_power <= 1
        return False

    def gain_diverges(self) -> bool:
        return True

    def closed_ode(self, la: float, u: float) -> float | None:
        if self.log_power == 0.0:
            return _closed_power(self.coefficient, self.power, la, u)
        if self.power == 1.0:
            # integrand (in w) is w^{-gamma}/c; lower > 1 keeps la positive
            g = self.log_power
            if g == 1.0:
                return (math.log(u) - math.log(la)) / self.coefficient
            k = 1.0 - g
            return (_pow(u, k) - _pow(la, k)) / (self.coefficient * k)
        return None

    def __str__(self) -> str:
        return f"powerlog({self.coefficient!r},{self.power!r},{self.log_power!r})"


def classify_regime(g: CoefficientSpec) -> Regime:
    """The regime of a delayed term; a pure function of shape and parameters."""
    return g.regime()


# ---------------------------------------------------------------------------
# empirical limit probes

DEFAULT_PROBE_SCALES = (10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0)

# a log-ratio beyond +-log(100) at the last rung is treated as decisive
PROBE_DECISIVE = math.log(100.0)
PROBE_FLAT_TOL = 1e-3


class LimitKind(Enum):
    ZERO = "zero"
    FINITE = "finite"
    INFINITE = "infinite"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LimitVerdict:
    kind: LimitKind
    value: float | None = None
    log_ratios: tuple[float, ...] = ()

    def describe(self) -> str:
        if self.kind is LimitKind.FINITE:
            return f"finite ({self.value!r})"
        return self.kind.value


LogScaleFn = Callable[[float], float]


def _as_log_fn(obj) -> LogScaleFn:
    if isinstance(obj, CoefficientSpec):
        return obj.value_log
    if callable(obj):
        return obj
    raise DomainError(f"cannot probe {obj!r}: need a coefficient shape or a log-scale callable")


def limit_probe(numerator, denominator,
                scales: Sequence[float] = DEFAULT_PROBE_SCALES) -> LimitVerdict:
    """Empirical verdict on lim numerator(x)/denominator(x) as x grows.

    Both arguments are coefficient shapes or callables returning
    log F(e^u).  The log-ratio is evaluated at each rung of an increasing
    ladder of log-scales (at least four rungs):

    * strictly decreasing and ending below -log 100  ->  Zero
    * strictly increasing and ending above +log 100  ->  Infinite
    * last three rungs within 1e-3 of each other     ->  Finite(exp(last))
    * anything else                                  ->  Inconclusive
    """
    scales = tuple(float(s) for s in scales)
    if len(scales) < 4 or any(b <= a for a, b in zip(scales, scales[1:])):
        raise DomainError("probe ladder must be strictly increasing with at least 4 rungs")
    fnum, fden = _as_log_fn(numerator), _as_log_fn(denominator)
    ratios = tuple(fnum(s) - fden(s) for s in scales)

    if ratios[-1] == -math.inf:
        return LimitVerdict(LimitKind.ZERO, log_ratios=ratios)
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    if decreasing and ratios[-1] < -PROBE_DECISIVE:
        return LimitVerdict(LimitKind.ZERO, log_ratios=ratios)
    if increasing and ratios[-1] > PROBE_DECISIVE:
        return LimitVerdict(LimitKind.INFINITE, log_ratios=ratios)
    tail = ratios[-3:]
    if max(tail) - min(tail) <= PROBE_FLAT_TOL:
        return LimitVerdict(LimitKind.FINITE, value=_exp(ratios[-1]), log_ratios=ratios)
    return LimitVerdict(LimitKind.INCONCLUSIVE, log_ratios=ratios)


# ---------------------------------------------------------------------------
# textual syntax

_CALL_RE = re.compile(r"^([a-z]+)\s*(?:\(\s*(.*?)\s*\))?$", re.DOTALL)

_ARITY = {
    "zero": 0,
    "const": 1,
    "power": 2,
    "linear": 1,
    "xexplogpow": 2,
    "explogpow": 2,
    "powerlog": 3,
}


def parse_coefficient(text: str) -> CoefficientSpec:
    """Parse the textual shape syntax (case-insensitive, decimal parameters)."""
    m = _CALL_RE.match(text.strip().lower())
    if m is None:
        raise DomainError(f"cannot parse coefficient {text!r}")
    name, argstr = m.group(1), m.group(2)
    if name not in _ARITY:
        raise DomainError(f"unknown coefficient shape {name!r}")
    args: list[float] = []
    if argstr:
        for tok in argstr.split(","):
            try:
                args.append(float(tok.strip()))
            except ValueError as exc:
                raise DomainError(f"bad numeric parameter {tok.strip()!r} in {text!r}") from exc
    if len(args) != _ARITY[name]:
        raise DomainError(
            f"{name} takes {_ARITY[name]} parameter(s), got {len(args)} in {text!r}")
    if name == "zero":
        return Zero()
    if name == "const":
        return Constant(args[0])
    if name == "power":
        return Power(args[0], args[1])
    if name == "linear":
        return Linear(args[0])
    if name == "xexplogpow":
        return LinTimesExpLogPow(args[0], args[1])
    if name == "explogpow":
        return ExpLogPow(args[0], args[1])
    return PowerLog(args[0], args[1], args[2])
