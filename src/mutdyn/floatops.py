"""Small floating-point helpers and the package's numeric constants.

Everything is plain 64-bit arithmetic; no extended or arbitrary
precision is used anywhere.  That is a deliberate policy: the maps are
iterated millions of times and the tests pin down exactly what double
precision can and cannot deliver.  The tolerances are fixed in the
same spirit: ``EQ_TOL`` is the relative band of every equality, sign
and regime decision, ``PERIOD_TOL`` that of orbit return detection and
``JAC_STEP`` the step of the Jacobian probe.
"""
from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "EQ_TOL",
    "PERIOD_TOL",
    "JAC_STEP",
    "close_rel",
    "ulp_gap",
    "fpow",
    "softplus",
    "det2",
]

# Relative tolerances are applied as tol * max(1, magnitudes), so they
# act absolutely near the origin.
EQ_TOL = 1e-12
PERIOD_TOL = 1e-9
JAC_STEP = 1e-6


def close_rel(a: float, b: float, tol: float) -> bool:
    """True when |a - b| <= tol * max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def ulp_gap(a: float, b: float) -> float:
    """Distance from a to b in units of the larger magnitude's ulp."""
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def fpow(base: float, expo: float) -> float:
    """base ** expo for positive base, overflow mapped to inf.

    Small integer exponents dispatch to repeated multiplication, which
    is both faster and at least as accurate as the general pow; the
    generic path is the libm power.  Python raises OverflowError from
    float ** instead of returning inf, which would tear holes in long
    iterations, so that case is normalized here.
    """
    return _power(expo)(base)


# The running product 1.0 * base * ... * base of fpow's integer branch,
# indexed by the exponent 0..4.
_INT_POWERS = (
    lambda b: 1.0,
    lambda b: 1.0 * b,
    lambda b: 1.0 * b * b,
    lambda b: 1.0 * b * b * b,
    lambda b: 1.0 * b * b * b * b,
)


def _int_exponent(expo: float):
    """n when fpow raises to expo by repeated multiplication, else None."""
    n = int(expo) if -4.0 <= expo <= 4.0 else None
    return n if n is not None and expo == n else None


@lru_cache(maxsize=256, typed=True)
def _power(expo: float):
    """The callable base -> fpow(base, expo), its branch chosen once.

    Integer exponents with |n| <= 4 get repeated multiplication (a
    negative n takes the reciprocal first); every other exponent gets
    the libm power with overflow mapped to inf.  A loop that raises
    many bases to one exponent builds this once instead of paying
    fpow's dispatch on every call.  The callables of recent exponents
    are kept, so a scalar fpow call does not build one each time;
    typed keys keep an exponent's type, and so the result's.
    """
    n = _int_exponent(expo)
    if n is not None:
        if n < 0:
            product = _INT_POWERS[-n]
            return lambda base: product(1.0 / base)
        return _INT_POWERS[n]

    def power(base: float) -> float:
        try:
            return base ** expo
        except OverflowError:
            return math.inf

    return power


def softplus(z: float) -> float:
    """log(1 + e^z) without overflow at either end."""
    if z > 0.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def det2(m) -> float:
    """Determinant of a 2x2 matrix given as ((a, b), (c, d))."""
    (a, b), (c, d) = m
    return a * d - b * c
