"""Every shape's mathematics against the symbolic oracle in ``oracle.py``.

Shape parameters are small rationals.  Each property pins, with
``@example``, the boundary cases where a rule changes its answer; sympy is
slow next to the package, so each property runs few examples and no
deadline.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings, strategies as st

from delaygrowth.coefficients import (
    _SHAPES, Constant, ExpLogPow, Linear, LinTimesExpLogPow, Power, PowerLog,
    RegimeKind, Zero,
)
from delaygrowth.errors import DomainError
from delaygrowth.functionals import QUAD_ABS_TOL, QUAD_REL_TOL, NestedLogProduct

import oracle
from oracle import x

symbolic = settings(deadline=None, max_examples=4)


def small(lo, hi):
    return st.fractions(min_value=Fraction(lo), max_value=Fraction(hi), max_denominator=4)


def _shape(name, *params):
    return oracle.CLASSES[name](*map(float, params))


def _powerlog(c, power, log_power):
    # power 0 needs a nonnegative log power
    return _shape("powerlog", c, power, abs(log_power) if power == 0 else log_power)


coefficients = small("1/4", 4)

nonzero_shapes = st.one_of(
    st.builds(_shape, st.just("const"), coefficients),
    st.builds(_shape, st.just("linear"), coefficients),
    st.builds(_shape, st.just("power"), coefficients, small(0, 3)),
    st.builds(_shape, st.just("xexplogpow"), coefficients, small("1/4", 2)),
    st.builds(_shape, st.just("explogpow"), coefficients, small("1/4", 3)),
    st.builds(_powerlog, coefficients, small(0, 3), small(-3, 3)),
    st.just(NestedLogProduct()),
)
shapes = st.one_of(st.just(Zero()), nonzero_shapes)


def test_the_table_covers_the_catalog():
    assert set(oracle.TABLE) == set(_SHAPES) | {"nestedlog"}
    assert oracle.expression(Linear(3.0)) == 3 * x
    assert oracle.expression(PowerLog(0.5, 1.0, -2.0)) == x / (2 * sp.log(x)**2)


# ---------------------------------------------------------------------------
# values

@settings(deadline=None, max_examples=60)
@given(shape=shapes, u=st.floats(min_value=1e-3, max_value=200.0))
@example(shape=NestedLogProduct(), u=0.6)
@example(shape=ExpLogPow(3.0, 3.0), u=200.0)
def test_log_term_matches_50_digits(shape, u):
    assume(shape.supports(u))
    want = float(oracle.log_value(shape, u))
    assert shape.log_term(u) == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# closed forms of the ode-time functional, against mpmath.quad in w = log x

@symbolic
@given(shape=nonzero_shapes, la=small(0, 4), width=small("1/4", 8))
@example(shape=PowerLog(2.0, 1.0, 1.0), la=Fraction(1, 2), width=Fraction(3))
@example(shape=Power(2.0, 0.5), la=Fraction(0), width=Fraction(9))
@example(shape=Power(1.5, 1.0), la=Fraction(1), width=Fraction(5))
@example(shape=PowerLog(1.0, 1.0, 2.0), la=Fraction(1, 4), width=Fraction(6))
@example(shape=NestedLogProduct(), la=Fraction(1), width=Fraction(8))
def test_closed_forms_match_quadrature(shape, la, width):
    la, u = float(la), float(la + width)
    assume(shape.supports(la))
    closed = shape.closed_ode(la)
    if closed is not None:
        want = float(oracle.quad(oracle.ode_integrand(shape), la, u))
        assert closed(u) == pytest.approx(want, rel=QUAD_REL_TOL, abs=QUAD_ABS_TOL)


# ---------------------------------------------------------------------------
# the divergence rule, against limit comparison of the tail integrand

# xexplogpow and explogpow have no closed form, so they build no ode-time
# functional and carry no divergence rule
ruled_shapes = nonzero_shapes.filter(lambda s: not isinstance(s, (LinTimesExpLogPow, ExpLogPow)))


@symbolic
@given(shape=ruled_shapes)
@example(shape=Power(2.0, 1.0))
@example(shape=Power(1.0, 2.0))
@example(shape=PowerLog(1.0, 1.0, 1.0))
@example(shape=PowerLog(1.0, 1.0, 2.0))
def test_divergence_rules_match_limit_comparison(shape):
    assert shape.reciprocal_diverges() is oracle.tail_diverges(oracle.ode_integrand(shape))


def test_the_zero_shape_has_no_divergence_rule():
    with pytest.raises(DomainError):
        Zero().reciprocal_diverges()


# ---------------------------------------------------------------------------
# monotonicity, against the sign of F'

@symbolic
@given(shape=shapes)
@example(shape=PowerLog(1.0, 1.0, -2.0))
@example(shape=PowerLog(2.0, 0.5, -0.75))
@example(shape=NestedLogProduct())
def test_monotone_from_matches_the_derivative_sign(shape):
    start, slope = shape.monotone_from, oracle.derivative(shape)
    unit = max(1.0, start)
    # nondecreasing from just above the start on
    for step in (1e-6, 1e-2, 1.0, 100.0):
        assert slope(start + step * unit) >= 0
    # and strictly decreasing just below it, where that is inside the domain
    if start > shape.domain_threshold:
        assert slope(start - 1e-6 * unit) < 0


# ---------------------------------------------------------------------------
# regimes, against the growth index lim log F / log x

@symbolic
@given(shape=nonzero_shapes)
@example(shape=Constant(2.0))
@example(shape=Linear(2.5))
@example(shape=Power(1.0, 0.5))
@example(shape=Power(1.0, 2.0))
@example(shape=LinTimesExpLogPow(1.0, 0.5))
@example(shape=PowerLog(1.0, 1.0, 2.0))
@example(shape=PowerLog(2.0, 3.0, -1.0))
@example(shape=ExpLogPow(1.0, 2.0))
def test_regime_matches_the_growth_index(shape):
    regime = shape.regime()
    assume(regime.kind is not RegimeKind.UNSUPPORTED)
    f = oracle.expression(shape)
    index = oracle.limit(sp.log(f) / sp.log(x))
    if regime.kind is RegimeKind.SUBLINEAR_RV:
        assert index < 1
        assert regime.index == float(index)
    elif regime.kind is RegimeKind.LINEAR_RV:
        assert index == 1
        assert regime.index == float(oracle.limit(f / x))
    elif regime.kind is RegimeKind.RV1_SUPERLINEAR:
        assert index == 1
        assert oracle.limit(f / x) == sp.oo
        assert regime.index is None
    elif regime.kind is RegimeKind.POLY_SUPERLINEAR:
        assert 1 < index < sp.oo
        assert regime.index == float(index)
    else:
        assert regime.kind is RegimeKind.FASTER_THAN_POLY
        assert index == sp.oo
        assert regime.index == float(oracle.limit(sp.log(sp.log(f)) / sp.log(sp.log(x))))
