import functools
import math
import random
import re
from dataclasses import dataclass, replace

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from delaygrowth.coefficients import (
    Constant, ExpLogPow, Linear, LinTimesExpLogPow, Power, PowerLog, Zero,
)
from delaygrowth.errors import DomainError, HorizonExceeded
from delaygrowth.functionals import (
    INVERT_LOG_RANGE, QUAD_REL_TOL, FunctionalKind, GrowthFunctional,
    NestedLogProduct, default_ode_lower, diverges, evaluate, evaluate_many,
    gain_time, invert, invert_many, ode_time, _adaptive, _panel,
)

import oracle
from oracle import float_function


# ---------------------------------------------------------------------------
# closed forms against hand antiderivatives

def test_constant_shape_gives_linear_time():
    F = ode_time(Constant(2.0), 1.0)
    assert evaluate(F, math.log(5.0)) == pytest.approx(2.0)       # (5-1)/2
    assert evaluate(F, 0.0) == 0.0


def test_linear_shape_gives_log_time():
    F = ode_time(Linear(4.0), math.e)
    assert evaluate(F, 3.0) == pytest.approx(0.5)                 # (3-1)/4


def test_superlinear_power_saturates():
    F = ode_time(Power(1.0, 2.0), 1.0)
    assert evaluate(F, math.log(4.0)) == pytest.approx(0.75)      # 1 - 1/4
    assert evaluate(F, 700.0) == pytest.approx(1.0)


def test_sublinear_power():
    F = ode_time(Power(2.0, 0.5), 1.0)
    assert evaluate(F, math.log(9.0)) == pytest.approx(2.0)       # sqrt(9) - 1


@pytest.mark.parametrize("beta", [0.999999999, 0.9999, 0.5])
@pytest.mark.parametrize("u", [2.0, 10.0, 100.0])
def test_sublinear_power_keeps_its_digits_near_exponent_one(beta, u):
    # (e^{ku} - e^{k la})/(ck) with k = 1 - beta cancels about log10(1/k)
    # digits; for beta = 0.999999999 it was 1.1e-7 off at u = 2
    shape, la = Power(1.0, beta), 1.0
    value, _ = oracle.ode_value(shape, la, u)
    assert abs(shape.closed_ode(la)(u) - value) <= 4e-16 * value


def test_powerlog_unit_power():
    F = ode_time(PowerLog(1.0, 1.0, 1.0), math.e)
    assert evaluate(F, math.e) == pytest.approx(1.0)              # log log x
    F2 = ode_time(PowerLog(1.0, 1.0, 2.0), math.e)
    assert evaluate(F2, 2.0) == pytest.approx(0.5)                # 1 - 1/log x


def test_nested_log_product_iterated_log_form():
    phi = NestedLogProduct()
    F = ode_time(phi, math.e)

    def log3(x):
        return math.log(math.log(math.log(1.0 + x)))

    u = 10.0
    assert evaluate(F, u) == pytest.approx(log3(math.exp(u)) - log3(math.e), rel=1e-12)


def test_gain_time_of_a_linear_shape_is_log_x_over_log1p_c():
    F = gain_time(Linear(3.0))
    assert evaluate(F, 2.0) == pytest.approx(2.0 / math.log1p(3.0))
    F2 = gain_time(Power(2.0, 1.0))
    assert evaluate(F2, 5.0) == pytest.approx(5.0 / math.log1p(2.0))


# ---------------------------------------------------------------------------
# the quadrature engine against hand antiderivatives, on the ode-time
# integrands of shapes that are no comparison scale: they have no closed
# form, however simple their antiderivative, and so build no ode-time
# functional; the engine runs on the oracle's float integrand instead

def ode_quadrature(coeff, lower, u):
    """``_adaptive`` on the ode-time integrand of ``coeff`` over [log lower, u]."""
    return _adaptive(oracle.ode_float_integrand(coeff), math.log(lower), u)


def test_powerlog_zero_log_power_quadrature_matches_power():
    value = ode_quadrature(PowerLog(3.0, 2.0, 0.0), 2.0, math.log(4.0))
    assert value == pytest.approx((0.5 - 0.25) / 3.0)


def test_rv1_shape_quadrature_matches_the_incomplete_gamma_value():
    # integral of e^{-sqrt(w)} dw from 0 to 4 is 2 - 6 e^{-2}
    value = ode_quadrature(LinTimesExpLogPow(1.0, 0.5), 1.0, 4.0)
    assert value == pytest.approx(2.0 - 6.0 * math.exp(-2.0), rel=1e-12)


def test_square_log_exponent_quadrature_matches_the_erf_value():
    # integrand e^{w - w^2}; complete the square
    expected = (math.exp(0.25) * 0.5 * math.sqrt(math.pi)
                * (math.erf(0.5) - math.erf(-0.5)))
    assert ode_quadrature(ExpLogPow(1.0, 2.0), 1.0, 1.0) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# quadrature against an independent integrator

@pytest.mark.parametrize("coeff,lower,u", [
    (PowerLog(1.0, 2.0, 1.0), 2.0, 4.0),     # no antiderivative in the table
    (PowerLog(2.0, 0.5, -1.0), 3.0, 6.0),
    (ExpLogPow(1.0, 1.5), 1.0, 3.0),
    (ExpLogPow(2.0, 0.5), 1.0, 5.0),
])
def test_ode_quadrature_matches_reference(coeff, lower, u):
    assert coeff.closed_ode(math.log(lower)) is None
    value = float_function(coeff)
    ref, ref_err = quad(lambda w: math.exp(w) / value(math.exp(w)),
                        math.log(lower), u, limit=200)
    assert ode_quadrature(coeff, lower, u) == pytest.approx(ref, rel=1e-8, abs=10.0 * ref_err)


@pytest.mark.parametrize("coeff,lower,u", [
    (LinTimesExpLogPow(1.0, 0.5), 1.0, 9.0),
    (Power(1.0, 2.0), 1.0, 6.0),
    (Power(1.0, 1.5), 1.0, 7.0),
    (PowerLog(1.0, 1.0, 2.0), 2.0, 7.0),
    (Constant(5.0), 1.0, 4.0),
])
def test_gain_quadrature_matches_reference(coeff, lower, u):
    F = GrowthFunctional(FunctionalKind.GAIN_TIME, coeff, lower)
    value = float_function(coeff)
    ref, ref_err = quad(
        lambda w: 1.0 / math.log1p(value(math.exp(w)) / math.exp(w)),
        math.log(lower), u, limit=200)
    assert evaluate(F, u) == pytest.approx(ref, rel=1e-7, abs=10.0 * ref_err)


def test_both_rules_of_a_panel_are_exact_on_a_degree_12_polynomial():
    # the 7-point rule is exact to degree 13 and the 15-point rule to 29,
    # so the error estimate vanishes up to rounding; a wrong shared centre
    # node fails here at once instead of as a quadrature that never ends
    est, err = _panel(lambda w: w ** 12, -1.0, 2.0)
    assert est == pytest.approx((2.0 ** 13 + 1.0) / 13.0, rel=1e-14)
    assert err <= 1e-12 * est


def test_gain_quadrature_resolves_the_lower_end_at_any_width():
    # sixty halvings of [0, 2^70] leave panels 1024 wide, far too wide for
    # the bend of 1/log1p(e^w) near w = 0; the panels there must split on
    g, u = Power(1.0, 2.0), 2.0 ** 70
    ends = [0.0] + [2.0 ** k for k in range(71)]
    want = sum(oracle.quad(oracle.gain_integrand(g), lo, hi)
               for lo, hi in zip(ends, ends[1:]))
    assert evaluate(gain_time(g), u) == pytest.approx(float(want), rel=QUAD_REL_TOL)


def test_gain_time_refuses_shapes_vanishing_at_one():
    # the window count from 1 is infinite when g(1) = 0
    with pytest.raises(DomainError):
        gain_time(PowerLog(1.0, 1.0, 1.0))


def test_rv1_shape_quadrature_matches_the_reference_far_out():
    ref, _ = quad(lambda w: math.exp(-math.sqrt(w)), 0.0, 25.0, limit=200)
    assert ode_quadrature(LinTimesExpLogPow(1.0, 0.5), 1.0, 25.0) == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# batch evaluation

def test_evaluate_many_incremental_matches_pointwise():
    # sorted gain-time arguments take the incremental route
    F = GrowthFunctional(FunctionalKind.GAIN_TIME, PowerLog(1.0, 2.0, 1.0), 2.0)
    us = [1.0, 1.5, 1.5, 2.0, 4.0, 9.0]
    batch = evaluate_many(F, us)
    single = [evaluate(F, u) for u in us]
    for b, s in zip(batch, single):
        assert b == pytest.approx(s, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("shape,lower", [
    (Power(1.0, 0.5), 1.0), (Power(2.0, 2.0), 3.0), (Linear(1.5), math.e),
    (PowerLog(1.0, 1.0, 1.0), math.e), (NestedLogProduct(), math.e),
])
def test_an_ode_time_functional_evaluates_through_the_closed_form_it_kept(shape, lower):
    F = ode_time(shape, lower, scale=0.7)
    closed = shape.closed_ode(math.log(lower))
    us = [F.log_lower, F.log_lower + 0.5, 3.0 * F.log_lower + 2.0, 40.0]
    expected = [0.0 if u == F.log_lower else closed(u) / 0.7 for u in us]
    assert [v.hex() for v in evaluate_many(F, us)] == [v.hex() for v in expected]
    assert [evaluate(F, u).hex() for u in us] == [v.hex() for v in expected]
    # attributes, not fields: two equal functionals compare, hash and print alike
    twin = ode_time(shape, lower, scale=0.7)
    assert twin.closed_form is not F.closed_form
    assert twin == F and hash(twin) == hash(F) and repr(twin) == repr(F)
    assert gain_time(Linear(1.0)).closed_form is None


def test_evaluate_many_handles_unsorted_and_empty():
    F = gain_time(LinTimesExpLogPow(1.0, 0.5))
    us = [5.0, 1.0, 3.0]
    assert evaluate_many(F, us) == pytest.approx([evaluate(F, u) for u in us])
    assert evaluate_many(F, []) == []


# ---------------------------------------------------------------------------
# inversion

@pytest.mark.parametrize("F,u0", [
    (ode_time(Constant(1.0), 1.0), 5.0),
    (ode_time(PowerLog(1.0, 1.0, 1.0), math.e), 50.0),
    (ode_time(Linear(2.0), math.e), 40.0),
    (ode_time(NestedLogProduct(), math.e), 200.0),
])
def test_invert_round_trip(F, u0):
    y = evaluate(F, u0)
    u = invert(F, y)
    assert evaluate(F, u) == pytest.approx(y, rel=1e-8, abs=1e-8)


def test_invert_at_zero_returns_the_lower_reference():
    F = ode_time(Linear(2.0), math.e)
    assert invert(F, 0.0) == 1.0


def test_invert_scales():
    F = ode_time(Constant(1.0), 1.0)       # F(x) = x - 1
    u = invert(replace(F, scale=4.0), 1.0)     # (x-1)/4 = 1
    assert math.exp(u) == pytest.approx(5.0, rel=1e-8)


def test_invert_refuses_bounded_functionals():
    with pytest.raises(DomainError):
        invert(ode_time(Power(1.0, 2.0), 1.0), 0.5)
    with pytest.raises(DomainError):
        invert(ode_time(Linear(1.0), math.e), -1.0)


def test_invert_out_of_range_raises_horizon():
    F = ode_time(NestedLogProduct(), math.e)
    with pytest.raises(HorizonExceeded):
        invert(F, 10.0)


# ---------------------------------------------------------------------------
# the bracket search against the doubling scan

def scan_invert(functional, y):
    """``invert`` with its bracket from a plain doubling scan: the reference.

    Every result must match it in the last bit, because bisection stops at
    the first midpoint within tolerance and so depends on the bracket.
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
    step = 1.0
    hi = la + step
    while evaluate(functional, hi) < y:
        step *= 2.0
        hi = la + step
        if hi > INVERT_LOG_RANGE:
            raise HorizonExceeded(
                f"inverse of {functional.describe()} at {y!r} exceeds log range {INVERT_LOG_RANGE:g}")
    lo = la
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        val = evaluate(functional, mid)
        if abs(val - y) <= tol:
            return mid
        if val < y:
            lo = mid
        else:
            hi = mid


def outcome(fn, *args):
    """The result as float hex, or the exception's type and message."""
    try:
        return fn(*args).hex()
    except (DomainError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


# every diverging ode-time catalog functional with a closed form
CLOSED_DIVERGING = [
    ode_time(Constant(2.0), 1.0),
    ode_time(Power(1.0, 0.5), math.e),
    ode_time(Power(2.0, 0.5), 1.5),
    ode_time(Power(3.0, 1.0), 2.0),
    ode_time(Linear(3.0), 2.0),
    ode_time(PowerLog(1.0, 1.0, 1.0), math.e),
    ode_time(PowerLog(1.0, 1.0, 0.5), math.e),
    ode_time(PowerLog(1.0, 1.0, -2.0), 2.0),
    ode_time(NestedLogProduct(), math.e),
    ode_time(Linear(1.0), math.e),
]
# functionals evaluated by quadrature: the gain-time ones
QUADRATURE = [
    gain_time(Linear(2.0)),
    gain_time(Power(0.5, 1.0)),
    gain_time(Constant(5.0)),
    gain_time(Power(2.0, 0.5)),
    gain_time(Power(1.0, 2.0)),
    gain_time(LinTimesExpLogPow(1.0, 0.5)),
    gain_time(ExpLogPow(1.0, 0.5)),
    GrowthFunctional(FunctionalKind.GAIN_TIME, PowerLog(1.0, 2.0, 1.0), 2.0),
    GrowthFunctional(FunctionalKind.GAIN_TIME, NestedLogProduct(), math.e),
]
INVERT_YS = [1e-6, 1e-3, 0.1, 1.0, 3.7, 10.0, 100.0, 1e3, 1e5, 1e9]


# shapes without a closed form, each with a lower reference in its domain:
# the ode-time rows that quadrature once evaluated, and the delayed terms
# of the RV1 and faster-than-polynomial regimes
NO_CLOSED_FORM = [
    (PowerLog(2.0, 0.5, 0.0), 1.5),
    (PowerLog(2.0, 0.5, -1.0), 3.0),
    (ExpLogPow(1.0, 0.5), 1.0),
    (ExpLogPow(1.0, 1.0), 1.0),
    (ExpLogPow(1.0, 2.0), 1.0),
    (LinTimesExpLogPow(1.0, 0.5), 1.0),
]


def test_the_catalog_lists_are_what_they_say():
    for F in CLOSED_DIVERGING:
        assert F.kind is FunctionalKind.ODE_TIME
        assert diverges(F)
        assert F.coeff.closed_ode_inverse(F.log_lower) is not None
    for F in QUADRATURE:
        assert F.kind is FunctionalKind.GAIN_TIME


@pytest.mark.parametrize("coeff,lower", NO_CLOSED_FORM, ids=str)
def test_ode_time_refuses_shapes_without_a_closed_form(probes, coeff, lower):
    # an ode-time functional is its shape's closed form: there is no
    # quadrature route to fall back on, so the refusal is at construction
    assert coeff.closed_ode(math.log(lower)) is None
    with pytest.raises(DomainError, match=re.escape(f"{coeff} has no closed-form ode-time functional")):
        ode_time(coeff, lower)
    assert probes == []


@pytest.mark.parametrize("scale", [1.0, 0.37, 5.0])
@pytest.mark.parametrize("F", CLOSED_DIVERGING, ids=GrowthFunctional.describe)
def test_invert_matches_the_doubling_scan_on_closed_forms(F, scale):
    F = replace(F, scale=scale)
    for y in INVERT_YS:
        assert outcome(invert, F, y) == outcome(scan_invert, F, y), y


# the gain-time nested log at 1e9 is the inverse that a scan would take
# minutes over; the refusal comes before any probe
@pytest.mark.parametrize("F", QUADRATURE, ids=GrowthFunctional.describe)
def test_only_closed_forms_are_inverted(probes, F):
    message = f"{F.describe()} has no closed form to invert"
    for y in (0.0, 1e-6, 10.0, 1e9, math.inf):
        with pytest.raises(DomainError, match=re.escape(message)):
            invert(F, y)
    for ys in ([], [1e-6, 10.0, 1e9], [-1.0, math.nan]):
        with pytest.raises(DomainError, match=re.escape(message)):
            invert_many(F, ys)
    assert probes == []


def test_invert_stops_where_no_double_lies_inside_the_bracket():
    # F = x - 1e60 steps by about 3e46 between adjacent doubles of log x
    # near log 1e60, so no double meets the tolerance 2e-9 at y = 1: the
    # bisection ends where no double lies strictly inside its bracket
    F = ode_time(Constant(1.0), 1e60)
    assert invert(F, 1.0) == math.log(1e60)
    assert outcome(invert, F, 1.0) == outcome(scan_invert, F, 1.0)


def test_invert_matches_the_doubling_scan_on_bad_values():
    F = ode_time(Constant(2.0), 1.0)
    for y in (-1.0, math.nan, math.inf, 0.0):
        assert outcome(invert, F, y) == outcome(scan_invert, F, y)
    bounded = ode_time(Power(1.0, 2.0), 1.0)
    for y in (0.5, 0.0, math.inf):
        assert outcome(invert, bounded, y) == outcome(scan_invert, bounded, y)


def test_the_bracket_needs_no_probes_away_from_the_window(probes):
    # the envelope functional of g = x^2: F(x) = log log x / log 2, so
    # y = 900 needs log x near 2^900, and a scan probes about 900 bracket
    # ends; the inverse certifies every one of them
    F = ode_time(PowerLog(1.0, 1.0, 1.0), math.e, scale=math.log(2.0))
    y = 900.0
    assert outcome(invert, F, y) == outcome(scan_invert, F, y)
    probes.clear()
    invert(F, y)
    assert len(probes) <= 2


# ---------------------------------------------------------------------------
# batch inversion against the doubling scan, value by value

@functools.cache
def scanned(functional, y):
    """``scan_invert`` as float hex, with inf where it raises HorizonExceeded."""
    try:
        return scan_invert(functional, y).hex()
    except HorizonExceeded:
        return math.inf.hex()


def column_orders(ys):
    """ys ascending, descending, shuffled, and with repeats and zeros."""
    up = sorted(ys)
    mixed = [0.0] + [y for y in up for _ in (0, 1)] + [0.0] + up[::3]
    return [up, up[::-1], random.Random(3).sample(ys, len(ys)), mixed]


# 1e300 lies past the log range for the functionals that grow like log log x
@pytest.mark.parametrize("scale", [1.0, 0.37, 5.0])
@pytest.mark.parametrize("F", CLOSED_DIVERGING, ids=GrowthFunctional.describe)
def test_invert_many_is_the_scan_per_value_on_closed_forms(F, scale):
    F = replace(F, scale=scale)
    for ys in column_orders(INVERT_YS + [1e300, 1e306, 1e307, 1e308, 1.7e308, 1.79e308, math.inf]):
        got = [v.hex() for v in invert_many(F, ys)]
        assert got == [scanned(F, y) for y in ys], ys


@pytest.mark.parametrize("F,ys,bad", [
    (ode_time(Constant(2.0), 1.0), [1.0, 2.0, math.nan, 3.0], math.nan),
    (ode_time(Constant(2.0), 1.0), [1.0, -1.0, 2.0], -1.0),
    (ode_time(Power(1.0, 2.0), 1.0), [0.5], 0.5),
    (ode_time(Power(1.0, 2.0), 1.0), [math.inf, 0.0, 1.0], 0.0),
])
def test_invert_many_checks_everything_before_any_probe(probes, F, ys, bad):
    with pytest.raises(DomainError) as many:
        invert_many(F, ys)
    with pytest.raises(DomainError) as one:
        invert(F, bad)
    assert str(many.value) == str(one.value)
    assert probes == []


def _rung_value(F, scale, j):
    """F/scale at the bracket end la + 2^j."""
    F = replace(F, scale=scale)
    return evaluate(F, F.log_lower + 2.0 ** j)


_SQRT = ode_time(Power(1.0, 0.5), math.e)
_LOGLOG = ode_time(PowerLog(1.0, 1.0, 1.0), math.e)
_NESTED = ode_time(NestedLogProduct(), math.e)
# la + 2^996 is the last bracket end inside the log range, so F there is
# the largest value with a finite inverse
_TOP = _rung_value(_NESTED, 1.0, 996)


@settings(max_examples=60, deadline=None)
@given(F=st.sampled_from(CLOSED_DIVERGING), scale=st.sampled_from([1.0, 0.37, 5.0]),
       ys=st.lists(st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e), min_size=1, max_size=6))
@example(F=ode_time(Constant(2.0), 1.0), scale=1.0, ys=[1e-12, 5e-324, 1e-9])
@example(F=_SQRT, scale=0.37, ys=[_rung_value(_SQRT, 0.37, 3)])
@example(F=_LOGLOG, scale=5.0, ys=[_rung_value(_LOGLOG, 5.0, j) for j in (0, 4, 9)])
@example(F=_NESTED, scale=1.0, ys=[_TOP, math.nextafter(_TOP, math.inf), _TOP])
def test_invert_many_is_the_scan_per_value_on_drawn_values(F, scale, ys):
    F = replace(F, scale=scale)
    assert [v.hex() for v in invert_many(F, ys)] == [scanned(F, y) for y in ys]


# ---------------------------------------------------------------------------
# the shapes' exact inverses

@pytest.mark.parametrize("F", CLOSED_DIVERGING, ids=GrowthFunctional.describe)
def test_inverses_are_within_their_slack_of_the_oracle(F):
    # the slack is a first-order rounding bound times 2^10; without the
    # headroom it must still cover the inverse's error and the closed
    # form's own error at the inverse, both against 50 digits
    shape, la = F.coeff, F.log_lower
    inverse, closed = shape.closed_ode_inverse(la), shape.closed_ode(la)
    for y in INVERT_YS:
        u, slack = inverse(y)
        if not math.isfinite(u):
            assert closed(INVERT_LOG_RANGE) < y
            continue
        value, slope = oracle.ode_value(shape, la, u)
        error = abs(value - y) / slope + abs(closed(u) - value) / slope
        assert error <= slack * 2.0 ** -10, y


@settings(max_examples=100, deadline=None)
@given(F=st.sampled_from(CLOSED_DIVERGING), e=st.floats(-12.0, 12.0))
def test_inverses_round_trip_through_the_closed_forms(F, e):
    shape, la, y = F.coeff, F.log_lower, 10.0 ** e
    u, slack = shape.closed_ode_inverse(la)(y)
    if not math.isfinite(u):
        assert shape.closed_ode(la)(INVERT_LOG_RANGE) < y
        return
    assert u >= la - slack
    slope = math.exp(u - shape.value_log(u))    # the integrand e^u / F(e^u)
    assert abs(shape.closed_ode(la)(u) - y) <= slack * 2.0 ** -10 * slope


@pytest.mark.parametrize("shape,la,y", [
    (Power(1.0, 2.0), 0.0, 1.0),              # the sup of a bounded functional
    (PowerLog(1.0, 1.0, 3.0), 1.0, 0.5),      # the same with a log power
])
def test_inverses_give_none_where_no_value_is_reached(shape, la, y):
    assert shape.closed_ode_inverse(la)(y) is None


# ---------------------------------------------------------------------------
# batch evaluation against pointwise evaluation

@settings(max_examples=60, deadline=None)
@given(F=st.sampled_from(CLOSED_DIVERGING + [ode_time(Power(1.0, 2.0), 1.0)]),
       offsets=st.lists(st.floats(0.0, 800.0), max_size=12),
       scale=st.sampled_from([1.0, 0.37, 5.0]))
def test_evaluate_many_is_evaluate_bit_for_bit_on_closed_forms(F, offsets, scale):
    F = replace(F, scale=scale)
    points = [F.log_lower + d for d in offsets]
    assert [v.hex() for v in evaluate_many(F, points)] == \
        [evaluate(F, v).hex() for v in points]


@settings(max_examples=20, deadline=None)
@given(F=st.sampled_from(QUADRATURE),
       offsets=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=5))
def test_evaluate_many_is_evaluate_bit_for_bit_on_unsorted_quadrature(F, offsets):
    points = [F.log_lower + d for d in offsets]
    if all(b >= a for a, b in zip(points, points[1:])):
        points.reverse()    # sorted arguments take the incremental route
    if all(b >= a for a, b in zip(points, points[1:])):
        return              # all equal
    assert [v.hex() for v in evaluate_many(F, points)] == \
        [evaluate(F, v).hex() for v in points]


@pytest.mark.parametrize("F", CLOSED_DIVERGING + [ode_time(Power(1.0, 2.0), 1.0),
                                                 ode_time(PowerLog(1.0, 1.0, 2.0), 2.0),
                                                 ode_time(PowerLog(1.0, 1.0, 3.0), math.e)]
                         + QUADRATURE,
                         ids=GrowthFunctional.describe)
def test_the_functional_is_plus_zero_at_its_lower_reference(F):
    # a closed form written out at u = la gives -0.0 where its
    # denominator is negative (power or log power above 1), so the lower
    # reference is its own case, on the closed and the quadrature route alike
    la = F.log_lower
    assert evaluate(F, la).hex() == "0x0.0p+0"
    assert [v.hex() for v in evaluate_many(F, [la, la])] == ["0x0.0p+0"] * 2


@pytest.mark.parametrize("F", [ode_time(Constant(2.0), 2.0),
                               GrowthFunctional(FunctionalKind.GAIN_TIME, PowerLog(1.0, 2.0, 1.0), 2.0)],
                         ids=GrowthFunctional.describe)
@pytest.mark.parametrize("bad", [0.0, -math.inf, math.inf, math.nan])
def test_evaluate_many_raises_what_evaluate_raises(F, bad):
    # the first bad point raises, as the first, a middle or the last one
    # (0.0 lies below la); a NaN in the middle is one that min() passes
    la = F.log_lower
    good = [la + 1.0, la + 2.0, la + 3.0]
    for points in ([bad] + good + [la - 1.0], good[:2] + [bad, good[2], la - 1.0],
                   good + [bad]):
        with pytest.raises(DomainError) as many:
            evaluate_many(F, points)
        with pytest.raises(DomainError) as single:
            [evaluate(F, v) for v in points]
        assert str(many.value) == str(single.value)


@pytest.mark.parametrize("F", [ode_time(Constant(2.0), 2.0), ode_time(Linear(2.0), math.e),
                               ode_time(Power(1.0, 0.5), 1.0)],
                         ids=GrowthFunctional.describe)
def test_evaluate_many_takes_a_column_whose_sum_overflows(F):
    # every point is valid, but their sum is inf, so each is checked alone
    points = [1e308, 1.5e308, F.log_lower, 1.7e308]
    assert math.isinf(sum(points))
    assert [v.hex() for v in evaluate_many(F, points)] == \
        [evaluate(F, v).hex() for v in points]


# ---------------------------------------------------------------------------
# divergence rules

# every closed form, with both sides of its boundary: power 1 and log power 1
@pytest.mark.parametrize("F,expected", [
    (ode_time(Constant(2.0), 1.0), True),
    (ode_time(Power(1.0, 0.5), 1.0), True),
    (ode_time(Power(1.0, 2.0), 1.0), False),
    (ode_time(Power(1.0, 1.001), 1.0), False),
    (ode_time(NestedLogProduct(), math.e), True),
    (ode_time(Linear(2.0), math.e), True),
    (ode_time(PowerLog(1.0, 1.0, 1.0), math.e), True),
    (ode_time(Power(1.0, 0.999), 1.0), True),
    (ode_time(PowerLog(1.0, 1.0, 0.5), math.e), True),
    (ode_time(PowerLog(1.0, 1.0, 2.0), 2.0), False),
    (ode_time(PowerLog(1.0, 1.0, 1.001), 2.0), False),
    (ode_time(Power(2.0, 1.0), 2.0), True),
    (ode_time(PowerLog(1.0, 1.0, -2.0), 2.0), True),
])
def test_divergence_rules(F, expected):
    assert diverges(F) is expected


@pytest.mark.parametrize("F", [
    gain_time(Constant(2.0)),
    gain_time(LinTimesExpLogPow(1.0, 0.5)),
    gain_time(LinTimesExpLogPow(1.0, 1.5)),
    GrowthFunctional(FunctionalKind.GAIN_TIME, NestedLogProduct(), math.e),
], ids=GrowthFunctional.describe)
def test_gain_time_has_no_divergence_rule(F):
    with pytest.raises(DomainError, match="has no divergence rule"):
        diverges(F)


# ---------------------------------------------------------------------------
# construction and validation

def test_functional_validation():
    with pytest.raises(DomainError):
        ode_time(Zero(), 1.0)
    with pytest.raises(DomainError):
        ode_time(Constant(1.0), 0.0)
    with pytest.raises(DomainError):
        ode_time(PowerLog(1.0, 1.0, 1.0), 1.0)   # on the domain edge
    with pytest.raises(DomainError):
        gain_time_below_one = GrowthFunctional(
            FunctionalKind.GAIN_TIME, Linear(1.0), 0.5)
        del gain_time_below_one
    with pytest.raises(DomainError):
        ode_time(Constant(1.0), 1.0, scale=0.0)


def test_evaluate_rejects_arguments_below_lower():
    F = ode_time(Constant(1.0), 2.0)
    with pytest.raises(DomainError):
        evaluate(F, 0.0)
    with pytest.raises(DomainError):
        evaluate(F, math.inf)


@dataclass(frozen=True)
class FarDomainPower(Power):
    """A power law defined only for x > e^2, past the default floor e."""

    _MIN_LOG_ARG = 2.0


def test_default_ode_lower():
    assert default_ode_lower(Constant(1.0), 1.0) == math.e
    assert default_ode_lower(Constant(1.0), 10.0) == 10.0
    assert default_ode_lower(FarDomainPower(1.0, 0.5), 1.0) == math.exp(2.0)
    assert default_ode_lower(FarDomainPower(1.0, 0.5), 10.0) == 10.0


def test_describe_mentions_scale_only_when_set():
    F = ode_time(Constant(2.0), 1.0)
    assert "scale" not in F.describe()
    assert "scale=4" in replace(F, scale=4.0).describe()


def test_nested_log_product_shape():
    phi = NestedLogProduct()
    assert phi.domain_threshold == pytest.approx(math.e - 1.0)
    assert not phi.supports(math.log(math.e - 1.0))
    assert phi.supports(1.0)
    x = 50.0
    value = float_function(phi)
    assert phi.value_log(math.log(x)) == pytest.approx(math.log(value(x)), rel=1e-12)


# ---------------------------------------------------------------------------
# structural properties

@given(u1=st.floats(min_value=0.1, max_value=40.0),
       u2=st.floats(min_value=0.1, max_value=40.0))
def test_functionals_are_monotone(u1, u2):
    lo, hi = sorted((u1, u2))
    for F in (ode_time(PowerLog(1.0, 1.0, 0.5), 1.05),
              gain_time(LinTimesExpLogPow(1.0, 0.5))):
        assert evaluate(F, lo) <= evaluate(F, hi) + 1e-12


@given(u=st.floats(min_value=0.5, max_value=100.0),
       s=st.floats(min_value=0.1, max_value=50.0))
def test_rescaling_divides_values(u, s):
    F = ode_time(Constant(2.0), 1.0)
    assert evaluate(replace(F, scale=s), u) == pytest.approx(evaluate(F, u) / s, rel=1e-12)
