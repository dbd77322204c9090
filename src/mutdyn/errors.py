"""Exception types shared across the package."""

__all__ = ["MutdynError", "DomainError", "RegimeError", "RangeError"]


class MutdynError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MutdynError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RegimeError(MutdynError, ValueError):
    """An operation was requested in a parameter regime where it is undefined."""


class RangeError(MutdynError, OverflowError):
    """Evaluation left the representable floating-point range."""
