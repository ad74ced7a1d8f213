import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaygrowth.coefficients import (
    Constant, ExpLogPow, LimitKind, Linear, LinTimesExpLogPow, Power, PowerLog,
    Regime, RegimeKind, Zero, classify_regime, limit_probe, parse_coefficient, _SHAPES,
)
from delaygrowth.errors import DomainError
from delaygrowth.functionals import NestedLogProduct

from oracle import log_value

params = st.floats(min_value=0.1, max_value=10.0,
                   allow_nan=False, allow_infinity=False)

all_shapes = st.one_of(
    st.just(Zero()),
    params.map(Constant),
    params.map(Linear),
    st.builds(Power, params, st.floats(min_value=0.0, max_value=3.0)),
    st.builds(LinTimesExpLogPow, params, st.floats(min_value=0.1, max_value=0.9)),
    st.builds(ExpLogPow, params, st.floats(min_value=0.1, max_value=2.0)),
    st.builds(PowerLog, params, st.floats(min_value=0.1, max_value=3.0),
              st.floats(min_value=-3.0, max_value=3.0)),
)


# ---------------------------------------------------------------------------
# construction and evaluation

def test_parameter_validation():
    with pytest.raises(DomainError):
        Constant(0.0)
    with pytest.raises(DomainError):
        Constant(-2.0)
    with pytest.raises(DomainError):
        Power(1.0, -0.5)
    with pytest.raises(DomainError):
        Linear(math.inf)
    with pytest.raises(DomainError):
        LinTimesExpLogPow(1.0, 0.0)
    with pytest.raises(DomainError):
        PowerLog(1.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        PowerLog(1.0, 0.0, -1.0)
    PowerLog(1.0, 0.0, 2.0)  # power 0 with nonnegative log power is fine


def test_domains():
    assert PowerLog(1.0, 1.0, 1.0).supports(0.0) is False
    assert PowerLog(1.0, 1.0, 1.0).supports(0.5) is True
    assert LinTimesExpLogPow(1.0, 0.5).supports(0.0) is True
    assert ExpLogPow(1.0, 2.0).supports(-0.1) is False
    assert Constant(1.0).supports(-500.0) is True
    with pytest.raises(DomainError):
        PowerLog(1.0, 1.0, 1.0).value_log(0.0)
    with pytest.raises(DomainError):
        ExpLogPow(1.0, 2.0).value_log(math.log(0.5))


def test_domain_threshold():
    assert Constant(3.0).domain_threshold == 0.0
    assert Power(1.0, 2.0).domain_threshold == 0.0
    assert PowerLog(1.0, 1.0, 1.0).domain_threshold == 1.0
    assert LinTimesExpLogPow(1.0, 0.5).domain_threshold == 1.0


def test_monotone_from():
    assert Zero().monotone_from == 0.0
    assert Constant(3.0).monotone_from == 0.0
    assert Linear(2.0).monotone_from == 0.0
    assert Power(1.0, 2.0).monotone_from == 0.0
    assert LinTimesExpLogPow(1.0, 0.5).monotone_from == 1.0
    assert ExpLogPow(1.0, 2.0).monotone_from == 1.0
    assert NestedLogProduct().monotone_from == math.e - 1.0
    # x (log x)^-2 dips before log x = 2
    assert PowerLog(1.0, 1.0, -2.0).monotone_from == pytest.approx(math.exp(2.0))
    assert PowerLog(1.0, 1.0, 1.0).monotone_from == 1.0
    assert PowerLog(1.0, 0.0, 3.0).monotone_from == 1.0


def test_log_evaluation_spot_values():
    assert Power(2.0, 3.0).value_log(5.0) == pytest.approx(math.log(2.0) + 15.0)
    assert Linear(4.0).value_log(-200.0) == pytest.approx(math.log(4.0) - 200.0)
    assert Constant(7.0).value_log(1e6) == pytest.approx(math.log(7.0))
    assert Zero().value_log(3.0) == -math.inf
    u = 9.0
    assert LinTimesExpLogPow(1.0, 0.5).value_log(u) == pytest.approx(u + 3.0)
    assert ExpLogPow(2.0, 2.0).value_log(u) == pytest.approx(math.log(2.0) + 81.0)
    assert PowerLog(3.0, 2.0, -1.0).value_log(u) == pytest.approx(
        math.log(3.0) + 18.0 - math.log(9.0))


@settings(deadline=None)
@given(spec=all_shapes, u=st.floats(min_value=0.5, max_value=100.0))
def test_log_evaluation_matches_direct(spec, u):
    want = float(log_value(spec, u))
    got = spec.value_log(u)
    if want == -math.inf:
        assert got == -math.inf
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


def _hex(v) -> str:
    return float(v).hex()


@given(c=st.floats(min_value=1e-300, max_value=1e300),
       la=st.floats(min_value=-1e3, max_value=1e3),
       gaps=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=8))
def test_const_and_linear_are_power_at_exponent_0_and_1(c, la, gaps):
    # every double the shape hands out is the same as power's at that exponent
    us = [la + d for d in gaps]
    for shape, power in ((Constant(c), Power(c, 0.0)), (Linear(c), Power(c, 1.0))):
        assert shape.regime() == power.regime()
        assert shape.reciprocal_diverges() == power.reciprocal_diverges()
        got, want = shape.log_terms(np.array(us)), power.log_terms(np.array(us))
        assert got.dtype == want.dtype
        assert list(map(_hex, got)) == list(map(_hex, want))
        ode, ode_power = shape.closed_ode(la), power.closed_ode(la)
        for u in us:
            assert _hex(shape.log_term(u)) == _hex(power.log_term(u))
            assert _hex(ode(u)) == _hex(ode_power(u))


def test_only_the_shapes_affine_in_log_x_have_an_array_form():
    # numpy's log, exp, log1p and ** round unlike math's, so no other shape
    # can give log_term's bits over an array
    assert {name for name, shape in _SHAPES.items() if shape.log_terms is not None} \
        == {"const", "power", "linear"}
    assert NestedLogProduct.log_terms is None


@pytest.mark.parametrize("lam", [1.5, 2.0, 5.0])
def test_rv1_shape_scales_linearly_at_large_arguments(lam):
    # g(lam*x)/g(x) -> lam is what makes the unit-index rate law apply
    g = LinTimesExpLogPow(1.0, 0.3)
    u = 1e4
    shift = g.value_log(u + math.log(lam)) - g.value_log(u)
    assert shift == pytest.approx(math.log(lam), abs=1e-3)


# ---------------------------------------------------------------------------
# regimes and divergence rules

@pytest.mark.parametrize("g,kind,index", [
    (Constant(5.0), RegimeKind.SUBLINEAR_RV, 0.0),
    (Power(3.0, 0.5), RegimeKind.SUBLINEAR_RV, 0.5),
    (Power(2.5, 1.0), RegimeKind.LINEAR_RV, 2.5),
    (Linear(2.0), RegimeKind.LINEAR_RV, 2.0),
    (Power(1.0, 2.0), RegimeKind.POLY_SUPERLINEAR, 2.0),
    (PowerLog(2.0, 3.0, -1.0), RegimeKind.POLY_SUPERLINEAR, 3.0),
    (LinTimesExpLogPow(2.0, 0.5), RegimeKind.RV1_SUPERLINEAR, None),
    (PowerLog(1.0, 1.0, 2.0), RegimeKind.RV1_SUPERLINEAR, None),
    (ExpLogPow(1.0, 2.0), RegimeKind.FASTER_THAN_POLY, 2.0),
    (ExpLogPow(1.0, 0.7), RegimeKind.UNSUPPORTED, None),
    (LinTimesExpLogPow(1.0, 1.2), RegimeKind.UNSUPPORTED, None),
    (PowerLog(1.0, 1.0, 0.0), RegimeKind.UNSUPPORTED, None),
    (PowerLog(1.0, 0.5, 1.0), RegimeKind.UNSUPPORTED, None),
])
def test_regime_classification(g, kind, index):
    regime = classify_regime(g)
    assert regime.kind is kind
    if index is None:
        assert regime.index is None
    else:
        assert regime.index == pytest.approx(index)


def test_zero_delayed_term_is_rejected():
    with pytest.raises(DomainError):
        classify_regime(Zero())


def test_regime_describe_mentions_the_index():
    assert "poly-superlinear" in Regime(RegimeKind.POLY_SUPERLINEAR, 2.0).describe()
    assert "2.0" in Regime(RegimeKind.POLY_SUPERLINEAR, 2.0).describe()
    assert Regime(RegimeKind.RV1_SUPERLINEAR).describe() == "rv1-superlinear"


@pytest.mark.parametrize("spec,diverges", [
    (Constant(2.0), True),
    (Linear(3.0), True),
    (Power(1.0, 0.5), True),
    (Power(1.0, 1.0), True),
    (Power(1.0, 2.0), False),
    (PowerLog(1.0, 0.5, 5.0), True),
    (PowerLog(1.0, 1.0, 1.0), True),
    (PowerLog(1.0, 1.0, 1.5), False),
    (PowerLog(1.0, 2.0, -1.0), False),
])
def test_reciprocal_integral_divergence_rules(spec, diverges):
    assert spec.reciprocal_diverges() is diverges


def test_reciprocal_of_zero_is_rejected():
    with pytest.raises(DomainError):
        Zero().reciprocal_diverges()


# shapes without a closed form build no ode-time functional, so nothing
# asks for their divergence rule
@pytest.mark.parametrize("spec", [
    LinTimesExpLogPow(1.0, 0.5), ExpLogPow(1.0, 0.5), ExpLogPow(1.0, 1.0), ExpLogPow(1.0, 2.0),
], ids=str)
def test_shapes_without_an_ode_time_functional_have_no_divergence_rule(spec):
    with pytest.raises(DomainError, match="no divergence rule"):
        spec.reciprocal_diverges()


# ---------------------------------------------------------------------------
# limit probes

def test_probe_ratio_decaying_to_zero():
    verdict = limit_probe(Power(1.0, 0.5), Linear(1.0))
    assert verdict.kind is LimitKind.ZERO
    assert len(verdict.log_ratios) == 6


def test_probe_vanishing_numerator():
    assert limit_probe(Zero(), Linear(1.0)).kind is LimitKind.ZERO


def test_probe_finite_ratio():
    verdict = limit_probe(Linear(2.0), Linear(1.0))
    assert verdict.kind is LimitKind.FINITE
    assert verdict.value == pytest.approx(2.0)
    assert "2.0" in verdict.describe()


def test_probe_diverging_ratio():
    assert limit_probe(Power(1.0, 2.0), Linear(1.0)).kind is LimitKind.INFINITE


def test_probe_accepts_callables():
    verdict = limit_probe(lambda u: math.sin(u), Constant(1.0))
    assert verdict.kind is LimitKind.INCONCLUSIVE


def test_probe_ladder_validation():
    with pytest.raises(DomainError):
        limit_probe(object(), Linear(1.0))


def test_probe_slowly_decaying_ratio_is_not_called_zero():
    # log x decays against x only logarithmically; the last rung is still
    # far above the decisive line, so the verdict must stay open
    verdict = limit_probe(PowerLog(1.0, 1.0, -0.001), Linear(1.0))
    assert verdict.kind is LimitKind.INCONCLUSIVE


# ---------------------------------------------------------------------------
# textual syntax

@pytest.mark.parametrize("text,expected", [
    ("zero", Zero()),
    ("const(2.5)", Constant(2.5)),
    ("power(1.0, 2.0)", Power(1.0, 2.0)),
    ("POWER(1.0,2.0)", Power(1.0, 2.0)),
    ("linear( 3 )", Linear(3.0)),
    ("xexplogpow(1, 0.5)", LinTimesExpLogPow(1.0, 0.5)),
    ("explogpow(1, 2)", ExpLogPow(1.0, 2.0)),
    ("powerlog(1, 1, 1)", PowerLog(1.0, 1.0, 1.0)),
])
def test_parse_accepts_the_documented_syntax(text, expected):
    assert parse_coefficient(text) == expected


@pytest.mark.parametrize("text", [
    "wibble(1.0)",
    "power(1.0)",
    "power(1.0, 2.0, 3.0)",
    "const()",
    "const(-1.0)",
    "const(two)",
    "zero(1.0)",
    "",
])
def test_parse_rejects_malformed_input(text):
    with pytest.raises(DomainError):
        parse_coefficient(text)


@given(spec=all_shapes)
def test_str_parse_round_trip(spec):
    assert parse_coefficient(str(spec)) == spec
