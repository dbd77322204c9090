"""Exponent parameters and regime classification.

The planar maps implemented by this package are parameterized by two
strictly positive real exponents ``p`` and ``q``.  Everything
qualitative about the dynamics is decided by their product:

* ``pq < 4``  rotation-like behaviour and bounded orbits,
* ``pq = 4``  the borderline case, with linear escape for the
  piecewise-linear map,
* ``pq > 4``  hyperbolic behaviour with exponential escape.

Below the critical product the angle theta with ``pq = 4 cos^2(theta)``
controls rotation numbers, and :func:`detect_m` recognizes the
exceptional products ``4 cos^2(pi/m)`` at which the piecewise-linear
map is globally periodic.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum, auto

import numpy as np

from .errors import DomainError, RegimeError
from .floatops import EQ_TOL, close_rel

__all__ = [
    "Params",
    "Regime",
    "classify_regime",
    "theta_of",
    "kappa_nu",
    "detect_m",
]


@dataclass(frozen=True)
class Params:
    """An exponent pair (p, q), both finite and strictly positive."""

    p: float
    q: float

    def __post_init__(self):
        p = float(self.p)
        q = float(self.q)
        if not (math.isfinite(p) and p > 0.0 and math.isfinite(q) and q > 0.0):
            raise DomainError(
                f"exponents must be finite and positive, got p={self.p!r}, q={self.q!r}"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def pq(self) -> float:
        return self.p * self.q


class Regime(Enum):
    SUBCRITICAL = auto()
    CRITICAL = auto()
    SUPERCRITICAL = auto()


def classify_regime(params: Params) -> Regime:
    """Split parameter space by the product pq.

    The critical band is |pq - 4| <= EQ_TOL; subcritical and
    supercritical are strict beyond it, so the three cases partition
    every valid parameter pair.
    """
    gap = params.pq - 4.0
    if abs(gap) <= EQ_TOL:
        return Regime.CRITICAL
    return Regime.SUBCRITICAL if gap < 0.0 else Regime.SUPERCRITICAL


def theta_of(params: Params) -> float:
    """The angle theta in (0, pi/2) with pq = 4 cos^2(theta).

    Defined only below the critical product (strict comparison, no
    tolerance).  The inverse-cosine round trip loses relative accuracy
    as pq approaches 0, where the derivative of cos^2 vanishes; see the
    tests for the measured behaviour.
    """
    if not params.pq < 4.0:
        raise RegimeError(f"theta is defined for pq < 4 only, got pq={params.pq!r}")
    return math.acos(float(_kappa(params.p, params.q)) / 2.0)


def kappa_nu(params: Params) -> tuple[float, float]:
    """Return (kappa, nu) = (sqrt(pq), sqrt(p/q)).

    Each is the root of the rounded product or quotient, and so keeps
    its bits, while that is a normal float; otherwise it is sqrt(p)
    times or over sqrt(q), which stays in range for every valid pair.
    """
    return float(_kappa(params.p, params.q)), float(_nu(params.p, params.q))


def _kappa(p, q):
    # kappa_nu's kappa for floats or arrays alike; callers silence the
    # overflow of an array product
    return _root(p * q, np.sqrt(p) * np.sqrt(q))


def _nu(p, q):
    # kappa_nu's nu, the same way
    return _root(p / q, np.sqrt(p) / np.sqrt(q))


def _root(value, fallback):
    # sqrt(value) where value is a normal float, fallback elsewhere; [()]
    # turns the 0-d array of a scalar value into a numpy scalar
    normal = (value >= sys.float_info.min) & (value <= sys.float_info.max)
    return np.where(normal, np.sqrt(value), fallback)[()]


def detect_m(params: Params, cap: int = 10**6):
    """Find the integer m >= 3 with pq = 4 cos^2(pi/m), if any exists.

    The defining identity is inverted analytically and the rounded
    candidate is verified against the product within EQ_TOL, relative;
    the two neighbouring integers are also tried to absorb rounding of
    the inversion.  Returns None when no integer at or below ``cap``
    matches, and always None at or above the critical product.
    """
    pq = params.pq
    if pq >= 4.0:
        return None
    theta = theta_of(params)
    if theta <= 0.0:
        return None
    est = round(math.pi / theta)
    for cand in (est, est - 1, est + 1):
        if 3 <= cand <= cap:
            ref = 4.0 * math.cos(math.pi / cand) ** 2
            if close_rel(pq, ref, EQ_TOL):
                return cand
    return None
