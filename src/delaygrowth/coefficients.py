"""The closed catalog of coefficient shapes for the two right-hand-side terms.

A scenario's instantaneous term f and delayed term g are each drawn from a
small closed family.  Every shape knows how to evaluate itself analytically
in the log domain: given u = log x it returns log F(x) directly, so states
of any magnitude cost one float expression; the shapes affine in u also
have ``log_terms``, the same for an array of u, bit for bit.  A shape has
no direct float value F(x): the test suite checks each shape's mathematics
against a symbolic table of F(x), written independently of the formulas
here.  Shapes also expose their domain threshold (the scale above which
they are positive and continuous), the scale beyond which they are
nondecreasing, and a textual syntax used by config files:

    zero | const(c) | power(c,beta) | linear(C) | xexplogpow(c,alpha)
         | explogpow(c,alpha) | powerlog(c,beta,gamma)

That ``name(p1,p2,...)`` syntax has one private reader and one writer
here, driven by a table from name to class (one parameter per init field
of the class): ``_SHAPES`` for the shapes, and ``simulator._HISTORIES``
for the history segments, which share the reader, the writer and the
table pattern.  ``str`` of a tabled shape or history is its parsable text.

``const(c)`` and ``linear(C)`` are ``power`` with the exponent fixed at 0
and 1: they differ from it only in their syntax and error messages.

Each shape owns its mathematics: ``regime()`` names the growth regime that
fixes which rate law applies, and ``closed_ode`` integrates the shape's
ode-time functional in closed form for the shapes that serve as
comparison scales (``power``, and ``powerlog`` with power 1): given the
lower limit it does the lower-limit work once and returns the integral
as a function of the upper limit; ``closed_ode_inverse`` is that
function's exact inverse, with a bound on its rounding, and
``reciprocal_diverges()`` says whether the functional grows without
bound.  A shape without ``closed_ode`` builds no ode-time functional,
and nothing asks for its divergence rule.  The gain-time functional is
only evaluated, by quadrature, so shapes carry no closed form or
divergence rule for it.  ``classify_regime`` is the function
form of ``regime()``, and ``limit_probe`` renders an empirical verdict on
a limit of a ratio of two shapes along a ladder of log-scales;
predictions use it to check their dominance hypotheses before committing
to a rate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "CoefficientSpec", "Zero", "Constant", "Power", "Linear",
    "LinTimesExpLogPow", "ExpLogPow", "PowerLog",
    "Regime", "RegimeKind", "classify_regime",
    "LimitKind", "LimitVerdict", "limit_probe", "DEFAULT_PROBE_SCALES",
    "parse_coefficient",
]


def _pow(base: float, exponent: float) -> float:
    """Float power saturating to inf instead of raising on overflow.

    Every caller passes a positive exponent, or a base inside a shape's
    domain (u > 0 for ``powerlog``, which growth functionals check before
    building a closed form), so ``0.0 ** negative`` cannot arise.
    """
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _expm1(v: float) -> float:
    try:
        return math.expm1(v)
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
# Everything is expressed in u = log x.  ``closed_ode(la)`` returns the
# unscaled integral of the ode-time functional over [la, u] as a function
# of u, or None for a shape that builds no ode-time functional.  Only the
# comparison scales of the rate laws have one, since only they are
# evaluated and inverted.  The lower term is computed once, when the
# function is built.
#
# ``closed_ode_inverse(la)`` returns, next to each closed form, a function
# from an unscaled value Y to (u, slack), or None where the inverse is not
# finite or cannot be computed (overflow, or the log or root of a value
# <= 0).  u is the closed form's exact inverse at Y, evaluated in floats.
# ``functionals.invert_many`` decides from these pairs, without probing,
# both its bracket ends la + 2^j and its bisection midpoints, so slack
# bounds, in u, every rounding that can separate a probe's verdict from
# the exact functional V near u (exact arithmetic, on exact parameters or
# on rounded ones that the closed form and its inverse compute alike):
# - the closed form's forward error at a point m, over the slope V'(m),
#   with the division by the functional's scale;
# - the error of u itself;
# - the rounding of y -+ tol, of y * scale and of the test |V - y| <= tol:
#   at most e R each, with R = V / V', or e times the window's width,
#   which is below twice the larger |u| of its two ends.
# Sums are to first order in the unit roundoff e = 2^-53, with + - * /
# within e relative and math's exp, log, log1p, expm1 and ** within 2e.
# Each shape's sum is rounded up and multiplied by 2^10 (``_SLACK`` is
# e * 2^10).  Every bound grows with m at a slope far below 1 (for a
# diverging functional), so a point farther than slack from a window edge
# gets the verdict that edge would get, and no verdict assumes the closed
# form nondecreasing in floats.  Only where no pair is certified (y - tol
# <= 0, or an inverse that is not finite) does ``invert_many`` assume it:
# one probe at the last bracket end inside the log range decides whether
# the value lies past the range.  The headroom covers the second-order
# terms and the zone edges' own rounding (e |u|).

ClosedForm = Callable[[float], float]
# unscaled value Y -> (u, slack) or None; see above
ClosedInverse = Callable[[float], tuple[float, float] | None]

_SLACK = 2.0 ** -43


@dataclass(frozen=True)
class CoefficientSpec:
    """Base for the catalog.  Subclasses carry the parameters.

    Subclasses set ``_MIN_LOG_ARG`` (log of the smallest admissible
    argument) and ``_MIN_INCLUSIVE`` (whether that bound itself is
    admissible), implement ``log_term``, and override ``regime`` and the
    closed form with its divergence rule where they have them.  Only
    ``power`` (so ``const`` and ``linear`` too) has ``log_terms``, the
    log term over a float64 array, bit for bit; it is None on the others.
    There is no direct float value: F(x) itself is never needed, only log F.
    """

    _MIN_LOG_ARG = -math.inf
    _MIN_INCLUSIVE = False

    def log_term(self, u: float) -> float:
        raise NotImplementedError

    # None: numpy's ``log``, ``exp``, ``log1p`` and ``**`` do not round like
    # the math module's, so only the shapes affine in u have an array form
    log_terms = None

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
        """Scale beyond which the shape is nondecreasing; by default ``domain_threshold``."""
        return self.domain_threshold

    def regime(self) -> Regime:
        """The growth regime of this shape as a delayed term."""
        return _UNSUPPORTED

    def reciprocal_diverges(self) -> bool:
        """Whether the integral of 1/F over [a, inf) diverges: the
        divergence rule of the ode-time functional."""
        raise DomainError(f"no divergence rule for {self!r}")

    def closed_ode(self, la: float) -> ClosedForm | None:
        """u -> integral of e^w / F(e^w) over [la, u], or None without a closed form."""
        return None

    def closed_ode_inverse(self, la: float) -> ClosedInverse | None:
        """The inverse of ``closed_ode(la)`` with its slack, or None without a closed form."""
        return None

    def __str__(self) -> str:
        return _format_call(self, _SHAPES)


@dataclass(frozen=True)
class Zero(CoefficientSpec):
    """F(x) = 0.  Admissible only as an instantaneous term."""

    _MIN_INCLUSIVE = True

    def log_term(self, u: float) -> float:
        return -math.inf

    def regime(self) -> Regime:
        raise DomainError("the delayed term must not vanish identically")


@dataclass(frozen=True)
class Power(CoefficientSpec):
    """F(x) = coefficient * x**exponent with exponent >= 0.

    Negative exponents are rejected: every non-constant catalog member is
    eventually nondecreasing, which a decaying power would break.
    """

    coefficient: float
    exponent: float

    # what the coefficient is called in error messages
    _LABEL = "power coefficient"

    def __post_init__(self):
        _positive(self.coefficient, self._LABEL)
        _require(math.isfinite(self.exponent) and self.exponent >= 0,
                 f"power exponent must be nonnegative, got {self.exponent!r}")
        # log c, which every log term adds: an attribute, not a field, so
        # equality, repr and the name(args) text stay the parameters'
        object.__setattr__(self, "_log_c", math.log(self.coefficient))

    def log_term(self, u: float) -> float:
        return self._log_c + self.exponent * u

    def log_terms(self, us: np.ndarray) -> np.ndarray:
        return self._log_c + self.exponent * us

    def regime(self) -> Regime:
        if self.exponent < 1:
            return Regime(RegimeKind.SUBLINEAR_RV, self.exponent)
        if self.exponent == 1:
            return Regime(RegimeKind.LINEAR_RV, self.coefficient)
        return Regime(RegimeKind.POLY_SUPERLINEAR, self.exponent)

    def reciprocal_diverges(self) -> bool:
        return self.exponent <= 1

    def closed_ode(self, la: float) -> ClosedForm:
        c, beta = self.coefficient, self.exponent
        if beta == 1.0:
            return lambda u: (u - la) / c
        # e^{k la} (e^{k(u - la)} - 1)/(ck), k = 1 - beta: expm1 keeps the
        # digits that subtracting e^{k la} from e^{ku} would cancel
        k = 1.0 - beta
        lo, ck = _exp(k * la), c * k
        return lambda u: lo * _expm1(k * (u - la)) / ck

    def closed_ode_inverse(self, la: float) -> ClosedInverse:
        c, beta = self.coefficient, self.exponent
        if beta == 1.0:
            # V = (u - la)/c, R = u - la.  Forward: the subtraction, c, the
            # two divisions, 4eR; u = la + cY: 3eR + e|u|; y -+ tol and the
            # test: eR + 2e|u|.  8R + 3|u| <= 12 (|u| + |la|).
            def inverse(y: float) -> tuple[float, float]:
                u = la + c * y
                return u, _SLACK * 12.0 * (abs(u) + abs(la))
            return inverse
        # V = e^{k la} expm1(w)/(ck), k = 1 - beta, w = k(u - la); with
        # a = e^{ku}, V' = a/c, R = cY/a and q = max(1, e^{k la}/a) (q > 1
        # only for beta > 1, a bounded functional), so |k| R <= q.  The
        # closed form computes k and ck as the inverse does, so V takes
        # their float values: that rounding moves V, not a verdict on it.
        # Forward: the subtraction and the product put 2e|w| on w, which
        # moves V by 2e|w| a/(ck), 2e|u - la| over the slope; k la and the
        # exp put e(|k la| + 2) relative on e^{k la}; expm1, the product
        # and two divisions 5e relative: 2e|u - la| + qe|la| + 7eR.
        # u = la + log1p(r)/k with r = ckY/e^{k la}: r is off by
        # e(|k la| + 4) relative, which log1p turns into that times
        # |r/(1 + r)| = |k| R, over k: qe|la| + 4eR; log1p and the
        # division 3e|u - la|, the sum e|u|.  No term grows like 1/|k|:
        # log1p keeps the digits that log(e^{k la} + ckY)/k would cancel.
        # y -+ tol and the test: eR + 2e|u|.  Sum: e(3|u| + 5|u - la| + 2q|la| + 12R).
        k = 1.0 - beta
        lo, ck = _exp(k * la), c * k

        def inverse(y: float) -> tuple[float, float] | None:
            # e^{k la} leaves the double range only for beta > 1: bounded, never inverted
            r = ck * y / lo if 0.0 < lo < math.inf else -1.0
            if not r > -1.0:
                return None
            u = la + math.log1p(r) / k
            q = max(1.0, 1.0 / (1.0 + r))
            return u, _SLACK * (3.0 * abs(u) + 5.0 * abs(u - la) + 2.0 * q * abs(la)
                                + 12.0 * r / (k * (1.0 + r)))
        return inverse


@dataclass(frozen=True)
class Constant(Power):
    """F(x) = coefficient, the power law with exponent 0."""

    exponent: float = field(default=0.0, init=False)

    _LABEL = "const level"


@dataclass(frozen=True)
class Linear(Power):
    """F(x) = coefficient * x, the power law with exponent 1."""

    exponent: float = field(default=1.0, init=False)

    _LABEL = "linear slope"


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
        object.__setattr__(self, "_log_c", math.log(self.coefficient))

    def log_term(self, u: float) -> float:
        return self._log_c + u + _pow(u, self.exponent)

    def regime(self) -> Regime:
        if 0 < self.exponent < 1:
            return Regime(RegimeKind.RV1_SUPERLINEAR)
        return _UNSUPPORTED


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
        object.__setattr__(self, "_log_c", math.log(self.coefficient))

    def log_term(self, u: float) -> float:
        return self._log_c + _pow(u, self.exponent)

    def regime(self) -> Regime:
        if self.exponent > 1:
            return Regime(RegimeKind.FASTER_THAN_POLY, self.exponent)
        return _UNSUPPORTED


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
        object.__setattr__(self, "_log_c", math.log(self.coefficient))

    def log_term(self, u: float) -> float:
        return self._log_c + self.power * u + self.log_power * math.log(u)

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

    def closed_ode(self, la: float) -> ClosedForm | None:
        if self.power == 1.0:
            # integrand (in w) is w^{-gamma}/c; lower > 1 keeps la positive
            c, g = self.coefficient, self.log_power
            if g == 1.0:
                lo = math.log(la)
                return lambda u: (math.log(u) - lo) / c
            k = 1.0 - g
            lo, ck = _pow(la, k), c * k
            return lambda u: (_pow(u, k) - lo) / ck
        return None

    def closed_ode_inverse(self, la: float) -> ClosedInverse | None:
        if self.power != 1.0:
            return None
        c, g = self.coefficient, self.log_power
        if g == 1.0:
            # V = (log u - log la)/c, w = log u: V' = 1/(cu), R = u cY.
            # Forward: both logs, the subtraction, c and two divisions,
            # u e(2|w| + 2|log la|) + 4eR.  u = exp(log la + cY):
            # 3eR + u e(2|log la| + |w| + 2).  y -+ tol and the test:
            # eR + 2eu.  Sum: u e(3|w| + 4|log la| + 4) + 8eR.
            lo = math.log(la)

            def inverse(y: float) -> tuple[float, float]:
                w = lo + c * y
                u = _exp(w)
                return u, _SLACK * u * (3.0 * abs(w) + 4.0 * abs(lo) + 4.0 + 8.0 * c * y)
            return inverse
        # V = (u^k - la^k)/(ck), k = 1 - gamma; with a = u^k, V' = a/(cu),
        # R = u cY/a and q = max(1, la^k/a) (q > 1 only for gamma > 1, a
        # bounded functional).  Forward: the power, 2e + e|kw| relative on
        # u^k (w = log u), the same on la^k, then the subtraction, ck and
        # two divisions, 5e|D|; over the slope k a/u that is
        # u e(q(4/|k| + |log la|) + |w|) + 5eR.  u = (la^k + ckY)^(1/k):
        # the sum is off by q e(7 + |k log la|) relative, 1/k by 2e, the
        # power by 2e, so u e(q(7/|k| + |log la|) + 2|w| + 2).  y -+ tol
        # and the test: eR + 2eu.
        # Sum: u e(q(11/|k| + 2|log la|) + 3|w| + 4) + 6eR.
        k = 1.0 - g
        lo, ck, log_la = _pow(la, k), c * k, abs(math.log(la))

        def inverse(y: float) -> tuple[float, float] | None:
            a = lo + ck * y
            if not a > 0.0:
                return None
            u = _pow(a, 1.0 / k)
            q = max(1.0, lo / a)
            w = math.log(a) / k
            return u, _SLACK * u * (q * (12.0 / abs(k) + 2.0 * log_la) + 3.0 * abs(w)
                                    + 4.0 + 8.0 * c * y / a)
        return inverse


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


def limit_probe(numerator, denominator) -> LimitVerdict:
    """Empirical verdict on lim numerator(x)/denominator(x) as x grows.

    Both arguments are coefficient shapes or callables returning
    log F(e^u).  The log-ratio is evaluated at each rung of the increasing
    ladder of log-scales ``DEFAULT_PROBE_SCALES``:

    * strictly decreasing and ending below -log 100  ->  Zero
    * strictly increasing and ending above +log 100  ->  Infinite
    * last three rungs within 1e-3 of each other     ->  Finite(exp(last))
    * anything else                                  ->  Inconclusive
    """
    fnum, fden = _as_log_fn(numerator), _as_log_fn(denominator)
    ratios = tuple(fnum(s) - fden(s) for s in DEFAULT_PROBE_SCALES)

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

# name -> shape; a shape takes one parameter per init field
_SHAPES: dict[str, type[CoefficientSpec]] = {
    "zero": Zero,
    "const": Constant,
    "power": Power,
    "linear": Linear,
    "xexplogpow": LinTimesExpLogPow,
    "explogpow": ExpLogPow,
    "powerlog": PowerLog,
}


def _parse_call(text: str, table: dict[str, type], noun: str):
    """Build the ``table`` entry that ``text`` names, case-insensitively."""
    m = _CALL_RE.match(text.strip().lower())
    if m is None:
        raise DomainError(f"cannot parse {noun} {text!r}")
    name, argstr = m.group(1), m.group(2)
    if name not in table:
        raise DomainError(f"unknown {noun} shape {name!r}")
    args: list[float] = []
    if argstr:
        for tok in argstr.split(","):
            try:
                args.append(float(tok.strip()))
            except ValueError as exc:
                raise DomainError(f"bad numeric parameter {tok.strip()!r} in {text!r}") from exc
    cls = table[name]
    arity = sum(f.init for f in fields(cls))
    if len(args) != arity:
        raise DomainError(f"{name} takes {arity} parameter(s), got {len(args)} in {text!r}")
    return cls(*args)


def _format_call(obj, table: dict[str, type]) -> str:
    """``name(p1,p2,...)`` for an instance of a ``table`` class (bare ``name``
    when it takes no parameters); repr for an instance of any other class."""
    for name, cls in table.items():
        if type(obj) is cls:
            params = ",".join(repr(getattr(obj, f.name)) for f in fields(cls) if f.init)
            return f"{name}({params})" if params else name
    return repr(obj)


def parse_coefficient(text: str) -> CoefficientSpec:
    """Parse the textual shape syntax (case-insensitive, decimal parameters)."""
    return _parse_call(text, _SHAPES, "coefficient")
