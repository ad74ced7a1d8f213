"""Arithmetic on positive reals carried as their natural logarithm.

The states of a delay-dominated growth equation leave the double range
almost immediately in the fast regimes, so every positive quantity x is
carried as the plain float log x and sums are formed with the standard
rearrangement

    log(a + b) = max + log1p(exp(min - max))

which never overflows.  Zero is the log value -inf.  There is no
subtraction: the recursions treated here only add positive terms, and the
ordering of represented values is the ordering of their log values.

A result whose log value would exceed ``LOG_CAP`` raises
:class:`~delaygrowth.errors.HorizonExceeded`; callers that iterate (the
simulator) convert that into a truncated run.
"""

from __future__ import annotations

import math

from .errors import DomainError, HorizonExceeded

__all__ = ["LOG_CAP", "log_add", "log_scale"]

# Largest admissible log value.  Doubles top out near 1.8e308; capping the
# log value itself at 1e308 leaves headroom for downstream arithmetic.
LOG_CAP = 1e308

_NEG_INF = float("-inf")


def log_add(x: float, y: float) -> float:
    """log(a + b) from x = log a and y = log b."""
    if x == _NEG_INF:
        return y
    if y == _NEG_INF:
        return x
    if x < y:
        x, y = y, x
    # a NaN operand gives a NaN total, which passes the cap test
    total = x + math.log1p(math.exp(y - x))
    if total > LOG_CAP:
        raise HorizonExceeded(f"log value {total!r} exceeds the cap {LOG_CAP:g}")
    return total


def log_scale(x: float, c: float) -> float:
    """log(c a) from x = log a, for a positive constant c."""
    if math.isnan(c) or c <= 0.0 or math.isinf(c):
        raise DomainError(f"scale factor must be positive and finite, got {c!r}")
    if x == _NEG_INF:
        return x
    total = x + math.log(c)
    if total > LOG_CAP:
        raise HorizonExceeded(f"log value {total!r} exceeds the cap {LOG_CAP:g}")
    return total
