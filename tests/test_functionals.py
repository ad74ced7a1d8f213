import functools
import math
import random
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from delaygrowth.coefficients import (
    Constant, ExpLogPow, Linear, LinTimesExpLogPow, Power, PowerLog, Zero,
)
from delaygrowth.errors import DomainError, HorizonExceeded, NumericError
from delaygrowth.functionals import (
    INVERT_LOG_RANGE, INVERT_MAX_ITERS, FunctionalKind, GrowthFunctional,
    NestedLogProduct, default_ode_lower, diverges, evaluate, evaluate_many,
    gain_time, invert, invert_many, ode_time, _bracket_exponent, _closed,
    _evaluator,
)

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


def test_powerlog_unit_power():
    F = ode_time(PowerLog(1.0, 1.0, 1.0), math.e)
    assert evaluate(F, math.e) == pytest.approx(1.0)              # log log x
    F2 = ode_time(PowerLog(1.0, 1.0, 2.0), math.e)
    assert evaluate(F2, 2.0) == pytest.approx(0.5)                # 1 - 1/log x


def test_powerlog_zero_log_power_matches_power():
    F = ode_time(PowerLog(3.0, 2.0, 0.0), 2.0)
    assert evaluate(F, math.log(4.0)) == pytest.approx((0.5 - 0.25) / 3.0)


def test_rv1_shape_incomplete_gamma_form():
    F = ode_time(LinTimesExpLogPow(1.0, 0.5), 1.0)
    # integral of e^{-sqrt(w)} dw from 0 to 4 is 2 - 6 e^{-2}
    assert evaluate(F, 4.0) == pytest.approx(2.0 - 6.0 * math.exp(-2.0), rel=1e-12)


def test_square_log_exponent_erf_form():
    F = ode_time(ExpLogPow(1.0, 2.0), 1.0)
    expected = (math.exp(0.25) * 0.5 * math.sqrt(math.pi)
                * (math.erf(0.5) - math.erf(-0.5)))
    assert evaluate(F, 1.0) == pytest.approx(expected, rel=1e-12)


def test_nested_log_product_iterated_log_form():
    phi = NestedLogProduct()
    F = ode_time(phi, math.e)

    def log3(x):
        return math.log(math.log(math.log(1.0 + x)))

    u = 10.0
    assert evaluate(F, u) == pytest.approx(log3(math.exp(u)) - log3(math.e), rel=1e-12)


def test_gain_closed_form():
    F = gain_time(Linear(3.0))
    assert evaluate(F, 2.0) == pytest.approx(2.0 / math.log1p(3.0))
    F2 = gain_time(Power(2.0, 1.0))
    assert evaluate(F2, 5.0) == pytest.approx(5.0 / math.log1p(2.0))


# ---------------------------------------------------------------------------
# quadrature against an independent integrator

@pytest.mark.parametrize("coeff,lower,u", [
    (PowerLog(1.0, 2.0, 1.0), 2.0, 4.0),     # no antiderivative in the table
    (PowerLog(2.0, 0.5, -1.0), 3.0, 6.0),
    (ExpLogPow(1.0, 1.5), 1.0, 3.0),
    (ExpLogPow(2.0, 0.5), 1.0, 5.0),
])
def test_ode_quadrature_matches_reference(coeff, lower, u):
    F = ode_time(coeff, lower)
    assert coeff.closed_ode(F.log_lower) is None
    value = float_function(coeff)
    ref, ref_err = quad(lambda w: math.exp(w) / value(math.exp(w)),
                        math.log(lower), u, limit=200)
    assert evaluate(F, u) == pytest.approx(ref, rel=1e-8, abs=10.0 * ref_err)


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


def test_gain_time_refuses_shapes_vanishing_at_one():
    # the window count from 1 is infinite when g(1) = 0
    with pytest.raises(DomainError):
        gain_time(PowerLog(1.0, 1.0, 1.0))


def test_closed_forms_agree_with_quadrature_route():
    # same functional, both routes; closed form is the reference here
    coeff = LinTimesExpLogPow(1.0, 0.5)
    F = ode_time(coeff, 1.0)
    ref, _ = quad(lambda w: math.exp(-math.sqrt(w)), 0.0, 25.0, limit=200)
    assert evaluate(F, 25.0) == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# batch evaluation

def test_evaluate_many_incremental_matches_pointwise():
    F = ode_time(PowerLog(1.0, 2.0, 1.0), 2.0)  # quadrature path
    us = [1.0, 1.5, 1.5, 2.0, 4.0, 9.0]
    batch = evaluate_many(F, us)
    single = [evaluate(F, u) for u in us]
    for b, s in zip(batch, single):
        assert b == pytest.approx(s, rel=1e-8, abs=1e-10)


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
    (gain_time(Linear(2.0)), 40.0),
    (ode_time(NestedLogProduct(), math.e), 200.0),
])
def test_invert_round_trip(F, u0):
    y = evaluate(F, u0)
    u = invert(F, y)
    assert evaluate(F, u) == pytest.approx(y, rel=1e-8, abs=1e-8)


def test_invert_at_zero_returns_the_lower_reference():
    F = gain_time(Linear(2.0))
    assert invert(F, 0.0) == 0.0


def test_invert_scales():
    F = ode_time(Constant(1.0), 1.0)       # F(x) = x - 1
    u = invert(replace(F, scale=4.0), 1.0)     # (x-1)/4 = 1
    assert math.exp(u) == pytest.approx(5.0, rel=1e-8)


def test_invert_refuses_bounded_functionals():
    with pytest.raises(DomainError):
        invert(ode_time(Power(1.0, 2.0), 1.0), 0.5)
    with pytest.raises(DomainError):
        invert(gain_time(Linear(1.0)), -1.0)


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
    for _ in range(INVERT_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        val = evaluate(functional, mid)
        if abs(val - y) <= tol:
            return mid
        if val < y:
            lo = mid
        else:
            hi = mid
    raise NumericError(f"inversion of {functional.describe()} at {y!r} did not converge")


def outcome(fn, *args):
    """The result as float hex, or the exception's type and message."""
    try:
        return fn(*args).hex()
    except (DomainError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


# every diverging catalog functional, by how it is evaluated
CLOSED_DIVERGING = [
    ode_time(Constant(2.0), 1.0),
    ode_time(Power(1.0, 0.5), math.e),
    ode_time(Power(3.0, 1.0), 2.0),
    ode_time(Linear(3.0), 2.0),
    ode_time(PowerLog(2.0, 0.5, 0.0), 1.5),
    ode_time(PowerLog(1.0, 1.0, 1.0), math.e),
    ode_time(PowerLog(1.0, 1.0, 0.5), math.e),
    ode_time(PowerLog(1.0, 1.0, -2.0), 2.0),
    ode_time(NestedLogProduct(), math.e),
    gain_time(Linear(2.0)),
    gain_time(Power(0.5, 1.0)),
]
QUADRATURE_DIVERGING = [
    ode_time(PowerLog(2.0, 0.5, -1.0), 3.0),
    ode_time(ExpLogPow(1.0, 0.5), 1.0),
    ode_time(ExpLogPow(1.0, 1.0), 1.0),
    gain_time(Constant(5.0)),
    gain_time(Power(2.0, 0.5)),
    gain_time(Power(1.0, 2.0)),
    gain_time(LinTimesExpLogPow(1.0, 0.5)),
    gain_time(ExpLogPow(1.0, 0.5)),
    GrowthFunctional(FunctionalKind.GAIN_TIME, PowerLog(1.0, 2.0, 1.0), 2.0),
    GrowthFunctional(FunctionalKind.GAIN_TIME, NestedLogProduct(), math.e),
]
INVERT_YS = [1e-6, 1e-3, 0.1, 1.0, 3.7, 10.0, 100.0, 1e3, 1e5, 1e9]


def test_the_catalog_lists_are_what_they_say():
    for F in CLOSED_DIVERGING + QUADRATURE_DIVERGING:
        assert diverges(F)
        assert (_closed(F) is not None) == (F in CLOSED_DIVERGING)


@pytest.mark.parametrize("scale", [1.0, 0.37, 5.0])
@pytest.mark.parametrize("F", CLOSED_DIVERGING, ids=GrowthFunctional.describe)
def test_invert_matches_the_doubling_scan_on_closed_forms(F, scale):
    F = replace(F, scale=scale)
    for y in INVERT_YS:
        assert outcome(invert, F, y) == outcome(scan_invert, F, y), y


# quadrature costs up to a few tenths of a second per inverse, so fewer
# points; the gain-time nested log is left out at 1e9, where the scan
# integrates over a range of 2^32 for minutes
@pytest.mark.parametrize("scale", [1.0, 5.0])
@pytest.mark.parametrize("F", QUADRATURE_DIVERGING, ids=GrowthFunctional.describe)
def test_invert_matches_the_doubling_scan_on_quadrature(F, scale):
    F = replace(F, scale=scale)
    ys = [1e-6, 10.0] if isinstance(F.coeff, NestedLogProduct) else [1e-6, 10.0, 1e9]
    for y in ys:
        assert outcome(invert, F, y) == outcome(scan_invert, F, y), y


def test_invert_matches_the_doubling_scan_on_bad_values():
    F = ode_time(Constant(2.0), 1.0)
    for y in (-1.0, math.nan, math.inf, 0.0):
        assert outcome(invert, F, y) == outcome(scan_invert, F, y)
    bounded = ode_time(Power(1.0, 2.0), 1.0)
    for y in (0.5, 0.0, math.inf):
        assert outcome(invert, bounded, y) == outcome(scan_invert, bounded, y)


def test_invert_of_the_rv1_window_count_is_pinned():
    # a probe past the scan's bracket fails to converge here, so the
    # quadrature route must not look beyond the scan's stop
    assert invert(gain_time(LinTimesExpLogPow(1.0, 0.5)), 1e3).hex() == "0x1.e9a867e000000p+17"


def test_the_gallop_needs_logarithmically_many_probes():
    # the envelope functional of g = x^2: F(x) = log log x / log 2, so
    # y = 900 needs log x near 2^900 and a scan probes about 900 times
    F = ode_time(PowerLog(1.0, 1.0, 1.0), math.e, scale=math.log(2.0))
    evaluator = _evaluator(F, _closed(F))
    probes = []

    def counted(log_x):
        probes.append(log_x)
        return evaluator(log_x)

    y = 900.0
    j = _bracket_exponent(counted, F.log_lower, y, gallop=True)
    assert j == _bracket_exponent(evaluator, F.log_lower, y, gallop=False)
    assert j > 800
    assert len(probes) <= 2 * math.ceil(math.log2(j)) + 1


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
    for ys in column_orders(INVERT_YS + [1e300, math.inf]):
        got = [v.hex() for v in invert_many(F, ys)]
        assert got == [scanned(F, y) for y in ys], ys


@pytest.mark.parametrize("F", QUADRATURE_DIVERGING, ids=GrowthFunctional.describe)
def test_invert_many_is_the_scan_per_value_on_quadrature(F):
    for ys in column_orders([1e-6, 10.0]):
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


# ---------------------------------------------------------------------------
# batch evaluation against pointwise evaluation

@settings(max_examples=60, deadline=None)
@given(F=st.sampled_from(CLOSED_DIVERGING + [ode_time(Power(1.0, 2.0), 1.0),
                                             ode_time(LinTimesExpLogPow(1.0, 0.5), 1.0),
                                             ode_time(ExpLogPow(1.0, 2.0), 1.0)]),
       offsets=st.lists(st.floats(0.0, 800.0), max_size=12),
       scale=st.sampled_from([1.0, 0.37, 5.0]))
def test_evaluate_many_is_evaluate_bit_for_bit_on_closed_forms(F, offsets, scale):
    F = replace(F, scale=scale)
    points = [F.log_lower + d for d in offsets]
    assert [v.hex() for v in evaluate_many(F, points)] == \
        [evaluate(F, v).hex() for v in points]


@settings(max_examples=20, deadline=None)
@given(F=st.sampled_from(QUADRATURE_DIVERGING),
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
                                                 ode_time(PowerLog(1.0, 3.0, 0.0), 2.0)],
                         ids=GrowthFunctional.describe)
def test_the_functional_is_plus_zero_at_its_lower_reference(F):
    # a closed form written out at u = la gives -0.0 where its
    # denominator is negative (power above 1), so the lower reference is
    # its own case
    la = F.log_lower
    assert evaluate(F, la).hex() == "0x0.0p+0"
    assert [v.hex() for v in evaluate_many(F, [la, la])] == ["0x0.0p+0"] * 2


@pytest.mark.parametrize("F", [ode_time(Constant(2.0), 2.0),
                               ode_time(PowerLog(2.0, 0.5, -1.0), 3.0)], ids=GrowthFunctional.describe)
@pytest.mark.parametrize("bad", [0.0, -math.inf, math.inf, math.nan])
def test_evaluate_many_raises_what_evaluate_raises(F, bad):
    la = F.log_lower
    points = [la + 1.0, la + 2.0, bad, la + 3.0, la - 1.0]
    with pytest.raises(DomainError) as many:
        evaluate_many(F, points)
    with pytest.raises(DomainError) as single:
        [evaluate(F, v) for v in points]
    assert str(many.value) == str(single.value)


# ---------------------------------------------------------------------------
# divergence rules

@pytest.mark.parametrize("F,expected", [
    (ode_time(Constant(2.0), 1.0), True),
    (ode_time(Power(1.0, 0.5), 1.0), True),
    (ode_time(Power(1.0, 2.0), 1.0), False),
    (ode_time(LinTimesExpLogPow(1.0, 0.5), 1.0), False),
    (ode_time(NestedLogProduct(), math.e), True),
    (gain_time(Constant(2.0)), True),
    (gain_time(Power(1.0, 3.0)), True),
    (GrowthFunctional(FunctionalKind.GAIN_TIME, PowerLog(1.0, 1.0, 2.0), 2.0), True),
    (gain_time(LinTimesExpLogPow(1.0, 0.5)), True),
    (gain_time(LinTimesExpLogPow(1.0, 1.5)), False),
    (gain_time(ExpLogPow(1.0, 2.0)), False),
    (gain_time(ExpLogPow(1.0, 0.5)), True),
    (GrowthFunctional(FunctionalKind.GAIN_TIME, NestedLogProduct(), math.e), True),
])
def test_divergence_rules(F, expected):
    assert diverges(F) is expected


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
    for F in (ode_time(PowerLog(1.0, 2.0, 1.0), 1.05),
              gain_time(LinTimesExpLogPow(1.0, 0.5))):
        assert evaluate(F, lo) <= evaluate(F, hi) + 1e-12


@given(u=st.floats(min_value=0.5, max_value=100.0),
       s=st.floats(min_value=0.1, max_value=50.0))
def test_rescaling_divides_values(u, s):
    F = ode_time(Constant(2.0), 1.0)
    assert evaluate(replace(F, scale=s), u) == pytest.approx(evaluate(F, u) / s, rel=1e-12)
