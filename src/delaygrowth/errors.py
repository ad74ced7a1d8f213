"""Exception types shared across the package."""

__all__ = ["DomainError", "NumericError", "HorizonExceeded"]


class DomainError(ValueError):
    """An argument or parameter lies outside what a construction supports."""


class NumericError(ArithmeticError):
    """A numeric routine could not reach its accuracy target."""


class HorizonExceeded(ArithmeticError):
    """A log-domain magnitude passed the representable cap.

    Raised when a result's log value would exceed 1e308.  During simulation
    this is a normal outcome: the run is truncated at the last representable
    sample rather than aborted.
    """
