"""Log-domain simulation and rate verification for delay-driven growth.

The delayed term of x'(t) = f(x(t)) + g(x(t - tau)) sets the long-run
growth; this package simulates the explicit Euler scheme for such
equations in overflow-safe log arithmetic, classifies the delayed term,
predicts the exact growth rate for each supported regime, and checks the
prediction against the simulated trajectory.
"""

from .analysis import (
    EstimateStatus, EstimationError, Observable, Prediction, PredictionRefused,
    RateEstimate, SweepPoint, SweepResult, VerificationResult, default_functional,
    derive_envelope_params, envelope_check, envelope_margins, estimate_rate,
    format_prediction, format_verification, predict, solve_char_eq, sweep_h,
    verify_scenario,
)
from .coefficients import (
    CoefficientSpec, Constant, ExpLogPow, Linear, LinTimesExpLogPow, LimitKind,
    LimitVerdict, Power, PowerLog, Regime, RegimeKind, Zero, classify_regime,
    limit_probe, parse_coefficient,
)
from .errors import DomainError, HorizonExceeded, NumericError
from .functionals import (
    FunctionalKind, GrowthFunctional, NestedLogProduct, default_ode_lower,
    diverges, evaluate, evaluate_many, gain_time, invert, ode_time,
)
from .logdomain import LOG_CAP, log_add, log_scale
from .simulator import (
    ConstantHistory, History, RampHistory, Scenario, SimulationError, Trajectory,
    parse_history, simulate_euler, write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSpec", "Constant", "ConstantHistory", "DomainError",
    "EstimateStatus", "EstimationError", "ExpLogPow", "FunctionalKind",
    "GrowthFunctional", "History", "HorizonExceeded", "LOG_CAP",
    "Linear", "LinTimesExpLogPow", "LimitKind", "LimitVerdict",
    "NestedLogProduct", "NumericError", "Observable", "Power", "PowerLog",
    "Prediction", "PredictionRefused", "RampHistory", "RateEstimate", "Regime",
    "RegimeKind", "Scenario", "SimulationError", "SweepPoint", "SweepResult",
    "Trajectory", "VerificationResult", "Zero", "classify_regime",
    "default_functional", "default_ode_lower", "derive_envelope_params",
    "diverges", "envelope_check", "envelope_margins", "estimate_rate",
    "evaluate", "evaluate_many", "format_prediction", "format_verification",
    "gain_time", "invert", "limit_probe", "log_add", "log_scale",
    "ode_time", "parse_coefficient", "parse_history", "predict",
    "simulate_euler", "solve_char_eq", "sweep_h",
    "verify_scenario", "write_trajectory_csv",
]
