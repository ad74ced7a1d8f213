"""Log-domain simulation and rate verification for delay-driven growth.

The delayed term of x'(t) = f(x(t)) + g(x(t - tau)) sets the long-run
growth; this package simulates the explicit Euler scheme for such
equations in overflow-safe log arithmetic, classifies the delayed term,
predicts the exact growth rate for each supported regime, and checks the
prediction against the simulated trajectory.
"""

from . import analysis, coefficients, errors, functionals, logdomain, simulator
from .analysis import *
from .coefficients import *
from .errors import *
from .functionals import *
from .logdomain import *
from .simulator import *

__version__ = "0.1.0"

__all__ = [*analysis.__all__, *coefficients.__all__, *errors.__all__,
           *functionals.__all__, *logdomain.__all__, *simulator.__all__]
