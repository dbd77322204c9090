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

from .errors import RangeError, RegimeError, _real
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
        object.__setattr__(self, "p", _real(self.p, "exponents", "p", positive=True))
        object.__setattr__(self, "q", _real(self.q, "exponents", "q", positive=True))

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
    times or over sqrt(q).  kappa stays in range for every valid pair;
    nu leaves it once p/q passes about 3.2e616, and raises RangeError.
    """
    nu = float(_nu(params.p, params.q))
    if nu == math.inf:
        raise RangeError(f"nu = sqrt(p/q) leaves float range at p={params.p!r}, q={params.q!r}")
    return float(_kappa(params.p, params.q)), nu


def _kappa(p, q):
    # kappa_nu's kappa for floats or arrays alike; callers silence the
    # overflow of an array product
    return _root(p * q, np.sqrt(p) * np.sqrt(q))


def _nu(p, q):
    # kappa_nu's nu, the same way; inf where it leaves float range
    with np.errstate(over="ignore"):
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
    est = round(math.pi / theta_of(params))
    for cand in (est, est - 1, est + 1):
        if 3 <= cand <= cap:
            ref = 4.0 * math.cos(math.pi / cand) ** 2
            if close_rel(pq, ref, EQ_TOL):
                return cand
    return None
