import math

import pytest
from hypothesis import given, strategies as st

from delaygrowth.errors import DomainError, HorizonExceeded
from delaygrowth.logdomain import LOG_CAP, log_add, log_scale

ZERO = -math.inf   # log of 0

finite_logs = st.floats(min_value=-700.0, max_value=700.0,
                        allow_nan=False, allow_infinity=False)
log_or_zero = st.one_of(st.just(ZERO), finite_logs)


def close_log(a: float, b: float, ulps: int = 4) -> bool:
    if a == b:
        return True
    tol = ulps * math.ulp(max(1.0, abs(a), abs(b)))
    return abs(a - b) <= tol


def test_one_plus_one_is_two():
    one = 0.0   # log 1
    assert log_add(one, one) == pytest.approx(math.log(2.0), abs=1e-15)


def test_add_with_tiny_term_keeps_the_large_one():
    # exp(0 - 1000) underflows; the sum must still come out exact
    assert log_add(1000.0, 0.0) == 1000.0


def test_zero_is_the_additive_identity():
    x = 12.5
    assert log_add(x, ZERO) == x
    assert log_add(ZERO, x) == x
    assert log_add(ZERO, ZERO) == ZERO


def test_scale_validates_the_factor():
    x = 2.0
    assert log_scale(x, 2.0) == pytest.approx(2.0 + math.log(2.0))
    assert log_scale(ZERO, 7.0) == ZERO
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            log_scale(x, bad)


def test_cap_raises_horizon_exceeded():
    # below the cap small additions are float-absorbed, so a breach always
    # arrives via an operand already past the cap (a huge coefficient term)
    past = 1.01e308
    with pytest.raises(HorizonExceeded):
        log_scale(past, 3.0)
    with pytest.raises(HorizonExceeded):
        log_add(past, 1.0)
    with pytest.raises(HorizonExceeded):
        log_scale(math.inf, 0.5)
    # at the cap itself nothing fires
    at_cap = LOG_CAP
    assert log_add(at_cap, ZERO) == at_cap


@given(a=log_or_zero, b=log_or_zero)
def test_add_commutes(a, b):
    assert log_add(a, b) == log_add(b, a)


@given(a=log_or_zero, b=log_or_zero, c=log_or_zero)
def test_add_associates_to_a_few_ulps(a, b, c):
    lhs = log_add(log_add(a, b), c)
    rhs = log_add(a, log_add(b, c))
    assert close_log(lhs, rhs)


@given(a=finite_logs, b=finite_logs, c=log_or_zero)
def test_add_is_monotone(a, b, c):
    lo, hi = sorted((a, b))
    assert log_add(lo, c) <= log_add(hi, c)


@given(a=log_or_zero, b=log_or_zero)
def test_sum_dominates_both_terms(a, b):
    s = log_add(a, b)
    assert s >= a
    assert s >= b
