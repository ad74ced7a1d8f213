"""A symbolic oracle for the coefficient catalog.

Each shape's F(x) is written once here, as a sympy expression in x built
from the shape's init fields, independently of the log-domain formulas
the shapes carry.  From that one table come a float evaluator (lambdify
to ``math``), a 50-digit mpmath evaluator of log F(e^u), the integrands of
the two growth functionals in w = log x, and exact limits at infinity
(sympy's ``limit`` runs Gruntz's algorithm, which decides limits in the
exp-log class: D. Gruntz, *On Computing Limits in a Symbolic Manipulation
System*, ETH Zurich 1996).  ``ode_float_integrand`` is the one entry that
uses the shapes' own log-domain formulas: the float integrand on which
the tests run the package's quadrature engine for shapes whose ode-time
functional has no closed form.
"""

from dataclasses import fields
from fractions import Fraction

import mpmath
import sympy as sp

from delaygrowth.coefficients import _SHAPES, _exp
from delaygrowth.functionals import NestedLogProduct

x = sp.Symbol("x", positive=True)
w = sp.Symbol("w", positive=True)

DIGITS = 50

# name -> F(x) from the shape's init fields, in declaration order
TABLE = {
    "zero": lambda: sp.Integer(0),
    "const": lambda c: c,
    "power": lambda c, beta: c * x**beta,
    "linear": lambda c: c * x,
    "xexplogpow": lambda c, alpha: c * x * sp.exp(sp.log(x)**alpha),
    "explogpow": lambda c, alpha: c * sp.exp(sp.log(x)**alpha),
    "powerlog": lambda c, beta, gamma: c * x**beta * sp.log(x)**gamma,
    "nestedlog": lambda: (1 + x) * sp.log(1 + x) * sp.log(sp.log(1 + x)),
}

CLASSES = {**_SHAPES, "nestedlog": NestedLogProduct}


def exact(v: float) -> sp.Rational:
    """The rational of denominator at most 1000 that rounds to v, if any;
    else v's exact binary value.  Small rationals keep the limits fast."""
    small = Fraction(v).limit_denominator(1000)
    if float(small) == v:
        return sp.Rational(small.numerator, small.denominator)
    return sp.Rational(v)


def expression(shape) -> sp.Expr:
    """F(x) for ``shape``, as a sympy expression in the positive symbol x."""
    name = next(n for n, cls in CLASSES.items() if type(shape) is cls)
    params = [exact(getattr(shape, f.name)) for f in fields(shape) if f.init]
    return TABLE[name](*params)


def float_function(shape):
    """x -> F(x) in float arithmetic."""
    fn = sp.lambdify(x, expression(shape), "math")
    return lambda v: float(fn(v))


def log_value(shape, u: float) -> mpmath.mpf:
    """log F(e^u) at ``DIGITS`` significant digits (-inf where F vanishes)."""
    with mpmath.workdps(DIGITS):
        fn = sp.lambdify(x, expression(shape), "mpmath")
        value = fn(mpmath.exp(mpmath.mpf(u)))
        return mpmath.log(value) if value else mpmath.mpf("-inf")


def ode_integrand(shape) -> sp.Expr:
    """e^w / F(e^w): the ode-time functional is its integral over w = log x."""
    return sp.exp(w) / expression(shape).subs(x, sp.exp(w))


def ode_float_integrand(shape):
    """w -> e^w / F(e^w) in floats, from the shape's log term: the
    integrand, in w = log x, that ``functionals._adaptive`` integrates
    to the ode-time functional."""
    return lambda w: _exp(w - shape.value_log(w))


def gain_integrand(shape) -> sp.Expr:
    """1 / log(1 + F(e^w)/e^w): the gain-time functional in w = log x."""
    return 1 / sp.log(1 + expression(shape).subs(x, sp.exp(w)) / sp.exp(w))


def quad(integrand: sp.Expr, lo: float, hi: float) -> mpmath.mpf:
    """The integral of ``integrand`` (in w) over [lo, hi] by ``mpmath.quad``."""
    with mpmath.workdps(DIGITS):
        fn = sp.lambdify(w, integrand, "mpmath")
        return mpmath.quad(fn, [mpmath.mpf(lo), mpmath.mpf(hi)])


def ode_value(shape, la: float, u: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The ode-time functional of ``shape`` over [la, u] and its slope at u.

    Both at ``DIGITS`` digits.  ``mpmath.quad`` runs over pieces ending at
    la + (2^j - 1) a, with a = |la| (1 when la = 0): where la > 0 those
    ends are la 2^j, so an integrand like 1/w varies by at most a factor
    of two on a piece, however far u lies.
    """
    with mpmath.workdps(DIGITS):
        fn = sp.lambdify(w, ode_integrand(shape), "mpmath")
        lo, hi = mpmath.mpf(la), mpmath.mpf(u)
        step = abs(lo) or mpmath.mpf(1)
        ends = [lo]
        while ends[-1] + step < hi:
            ends.append(ends[-1] + step)
            step *= 2
        return mpmath.quad(fn, ends + [hi]), fn(hi)


def limit(expr: sp.Expr, var: sp.Symbol = x) -> sp.Expr:
    """The exact limit of ``expr`` as ``var`` tends to infinity."""
    return sp.limit(expr, var, sp.oo)


# the convergent comparison integrand is 1/w^(1 + _DELTA); it decides every
# tail that decays like 1/w^p with p > 1 + _DELTA
_DELTA = sp.Rational(1, 16)


def tail_diverges(integrand: sp.Expr) -> bool | None:
    """Whether the integral of ``integrand`` over [a, oo) diverges.

    Decided by limit comparison with 1/w and 1/(w log w), whose integrals
    diverge (a positive limit of the ratio means divergence), then with
    1/w^(1 + 1/16), whose integral converges (a finite limit means
    convergence).  None when no comparison is decisive.
    """
    for scale in (w, w * sp.log(w)):
        if limit(integrand * scale, w) > 0:
            return True
    if limit(integrand * w**(1 + _DELTA), w).is_finite:
        return False
    return None


def derivative(shape):
    """x -> F'(x) at ``DIGITS`` significant digits."""
    fn = sp.lambdify(x, sp.diff(expression(shape), x), "mpmath")

    def at(v):
        with mpmath.workdps(DIGITS):
            return fn(mpmath.mpf(v))
    return at
