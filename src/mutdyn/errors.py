"""Exception types shared across the package."""

import math

__all__ = ["MutdynError", "DomainError", "RegimeError", "RangeError"]


class MutdynError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MutdynError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RegimeError(MutdynError, ValueError):
    """An operation was requested in a parameter regime where it is undefined."""


class RangeError(MutdynError, OverflowError):
    """Evaluation left the representable floating-point range."""


def _count(value, name: str, low: int) -> int:
    # every count argument's check: an integral value (an int, a numpy
    # integer or an integral float) of at least low, returned as an int;
    # int() alone would truncate 2.5 and raise a bare error on nan, inf
    # or None
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if n < low:
        raise DomainError(f"{name} must be >= {low}, got {n}")
    return n


def _real(value, what: str, name: str | None = None, positive: bool = False) -> float:
    # every real argument's check: a value float() accepts whose float is
    # finite, and above 0 where positive asks, returned as a float;
    # float() alone passes nan and inf and raises a bare error otherwise
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if not (math.isfinite(v) and (v > 0.0 or not positive)):
        rule = "finite and positive" if positive else "finite"
        got = repr(value) if name is None else f"{name}={value!r}"
        raise DomainError(f"{what} must be {rule}, got {got}")
    return v


def _float(value, what: str) -> float:
    # a real argument that may also be nan or infinite: a value float()
    # accepts, returned as a float; float() alone raises a bare error
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a real number, got {value!r}") from None


def _pair(value, what: str):
    # a plain pair's two items; the caller checks each of them
    try:
        a, b = value
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a pair, got {value!r}") from None
    return a, b
