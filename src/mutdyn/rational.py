"""The birational exchange map on the open positive quadrant.

Two reflections act on points (x, y) with positive coordinates: one
replaces x by (1 + y^q)/x and fixes the curve x^2 = 1 + y^q pointwise,
the other replaces y by (1 + x^p)/y and fixes y^2 = 1 + x^p.  The map
iterated throughout this module is their composition, second after
first.  In logarithmic coordinates the composition preserves the
standard area form, which :func:`symplectic_residual` checks by
numerical differentiation.

The substitution (u, v) = (x^p, y^2) straightens the bookkeeping for
the escape analysis at pq >= 4: the two fixed curves become disjoint
graphs over the quadrant and :func:`region_uv` places a point relative
to them.  :func:`H_dist` and :func:`V_dist` measure the gaps between
the curves, which bound the escape increments from below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, auto

from .errors import DomainError, RangeError, RegimeError, _float, _pair, _real
from .floatops import EQ_TOL, JAC_STEP, close_rel, det2, fpow, softplus
from .params import Params, Regime, classify_regime

__all__ = [
    "PointPos",
    "UVPoint",
    "UVRegion",
    "mu1_x",
    "mu2_x",
    "mu_x",
    "mu_x_inv",
    "mu_x_closed",
    "mu_x_log",
    "to_uv",
    "from_uv",
    "mu1_uv",
    "mu2_uv",
    "mu_uv",
    "region_uv",
    "H_dist",
    "V_dist",
    "fixed_curves",
    "symplectic_residual",
]


@dataclass(frozen=True)
class PointPos:
    """A point of the open positive quadrant."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", _real(self.x, "coordinates", "x", positive=True))
        object.__setattr__(self, "y", _real(self.y, "coordinates", "y", positive=True))

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class UVPoint:
    """A point in the (u, v) = (x^p, y^2) coordinates, both positive."""

    u: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "u", _real(self.u, "coordinates", "u", positive=True))
        object.__setattr__(self, "v", _real(self.v, "coordinates", "v", positive=True))

    def as_tuple(self) -> tuple[float, float]:
        return (self.u, self.v)


class UVRegion(Enum):
    """Position relative to the two reflection-fixed curves (pq >= 4).

    BETWEEN          strictly between the curves
    PAST_MU1_CURVE   u beyond the curve fixed by the first reflection
    ABOVE_MU2_CURVE  v above the curve fixed by the second reflection
    ON_MU1_CURVE     within tolerance of the first curve
    ON_MU2_CURVE     within tolerance of the second curve
    """

    BETWEEN = auto()
    PAST_MU1_CURVE = auto()
    ABOVE_MU2_CURVE = auto()
    ON_MU1_CURVE = auto()
    ON_MU2_CURVE = auto()


def _finite_point(x: float, y: float, where: str, point=PointPos):
    # an image out of float range is a RangeError, not the point type's DomainError
    try:
        return point(x, y)
    except DomainError:
        raise RangeError(f"{where} left the representable positive quadrant") from None


def _finite_value(value: float, where: str) -> float:
    # a valid input whose value overflows is a RangeError, as for the maps
    if not math.isfinite(value):
        raise RangeError(f"{where} left float range")
    return value


def mu1_x(params: Params, pt: PointPos) -> PointPos:
    """First reflection: x -> (1 + y^q)/x, an involution fixing x^2 = 1 + y^q."""
    return _finite_point((1.0 + fpow(pt.y, params.q)) / pt.x, pt.y, "mu1_x")


def mu2_x(params: Params, pt: PointPos) -> PointPos:
    """Second reflection: y -> (1 + x^p)/y, an involution fixing y^2 = 1 + x^p."""
    return _finite_point(pt.x, (1.0 + fpow(pt.x, params.p)) / pt.y, "mu2_x")


def mu_x(params: Params, pt: PointPos) -> PointPos:
    """One step of the composed map, second reflection after the first."""
    return mu2_x(params, mu1_x(params, pt))


def mu_x_inv(params: Params, pt: PointPos) -> PointPos:
    """Inverse step; reflections compose in the opposite order."""
    return mu1_x(params, mu2_x(params, pt))


def mu_x_closed(params: Params, pt: PointPos) -> PointPos:
    """Single-fraction form of the composed step.

    Algebraically identical to :func:`mu_x`; kept separate so the two
    evaluation orders can be cross-checked against each other at the
    ulp level.
    """
    yq1 = 1.0 + fpow(pt.y, params.q)
    xp = fpow(pt.x, params.p)
    xx = yq1 / pt.x
    den = xp * pt.y
    # x^p * y can underflow to 0; the image is then out of range
    yy = (xp + fpow(yq1, params.p)) / den if den > 0.0 else math.inf
    return _finite_point(xx, yy, "mu_x_closed")


def mu_x_log(params: Params, ab: tuple[float, float]) -> tuple[float, float]:
    """One composed step in log coordinates (a, b) = (log x, log y).

    Softplus keeps the evaluation finite far beyond the direct map's
    range, so this is the right probe for escape-rate questions; it
    agrees with log of :func:`mu_x` of exp wherever the latter is
    finite.
    """
    a, b = _pair(ab, "log coordinates")
    a, b = _float(a, "log coordinates"), _float(b, "log coordinates")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise RangeError("log-coordinate input is not finite")
    a1 = softplus(params.q * b) - a
    b1 = softplus(params.p * a1) - b
    return (a1, b1)


def to_uv(params: Params, pt: PointPos) -> UVPoint:
    """Coordinate change (x, y) -> (x^p, y^2)."""
    return _finite_point(fpow(pt.x, params.p), pt.y * pt.y, "to_uv", UVPoint)


def from_uv(params: Params, uv: UVPoint) -> PointPos:
    """Inverse coordinate change (u, v) -> (u^(1/p), sqrt(v))."""
    return _finite_point(fpow(uv.u, 1.0 / params.p), math.sqrt(uv.v), "from_uv")


def mu1_uv(params: Params, uv: UVPoint) -> UVPoint:
    """The first reflection in (u, v): u -> (1 + v^(q/2))^p / u."""
    uu = fpow(1.0 + fpow(uv.v, params.q / 2.0), params.p) / uv.u
    return _finite_point(uu, uv.v, "mu1_uv", UVPoint)


def mu2_uv(params: Params, uv: UVPoint) -> UVPoint:
    """The second reflection in (u, v): v -> (1 + u)^2 / v."""
    w = 1.0 + uv.u
    return _finite_point(uv.u, (w * w) / uv.v, "mu2_uv", UVPoint)


def mu_uv(params: Params, uv: UVPoint) -> UVPoint:
    """One composed step in (u, v) coordinates."""
    return mu2_uv(params, mu1_uv(params, uv))


def _mu1_curve_u(params: Params, v: float) -> float:
    # u-coordinate of the first reflection's fixed curve at height v
    return fpow(1.0 + fpow(v, params.q / 2.0), params.p / 2.0)


def region_uv(params: Params, uv: UVPoint) -> UVRegion:
    """Locate a point relative to the two fixed curves; pq >= 4 only.

    Below the critical product the curves intersect and the
    decomposition does not exist, so that case raises RegimeError.
    Boundary bands use the relative EQ_TOL; the second curve's band is
    tested first, so a point managing to sit in both bands reports it.
    """
    if classify_regime(params) is Regime.SUBCRITICAL:
        raise RegimeError(
            f"region decomposition needs pq >= 4, got pq={params.pq!r}"
        )
    u, v = uv.u, uv.v
    c2 = 1.0 + u
    if close_rel(v, c2, EQ_TOL):
        return UVRegion.ON_MU2_CURVE
    c1 = _mu1_curve_u(params, v)
    if close_rel(u, c1, EQ_TOL):
        return UVRegion.ON_MU1_CURVE
    if v > c2:
        return UVRegion.ABOVE_MU2_CURVE
    if u > c1:
        return UVRegion.PAST_MU1_CURVE
    return UVRegion.BETWEEN


def H_dist(params: Params, v: float) -> float:
    """Horizontal gap between the two fixed curves at height v >= 1.

    Equals 2^(p/2) at the corner height 1 and grows without bound like
    v^(pq/4).  Strictly increasing in v whenever p >= 2; for p < 2 the
    curved boundary leaves the corner steeply enough that the gap can
    dip first (p = 0.5, q = 9 shrinks until about v = 1.4).  At the
    critical product with p = q = 2 it degenerates to the constant 2.
    Lower-bounds the u-increment of any escape step crossing from
    above the second curve to beyond the first at that height.  A gap
    beyond float range raises RangeError.
    """
    if classify_regime(params) is Regime.SUBCRITICAL:
        raise RegimeError(f"curve gap needs pq >= 4, got pq={params.pq!r}")
    v = _real(v, "height")
    if v < 1.0:
        raise DomainError(f"height must be >= 1, got {v!r}")
    return _finite_value(_mu1_curve_u(params, v) - v + 1.0, "H_dist")


def V_dist(params: Params, u: float) -> float:
    """Vertical gap between the two fixed curves at position u >= 1.

    The mirror of :func:`H_dist` with the roles of the exponents
    swapped: exactly 2 at u = 1, eventually growing like u itself.
    Strictly increasing whenever q <= 2; for q > 2 the gap dips below
    2 just past the corner before growing (q here plays the role p
    plays for the horizontal gap, on the other side of 2 because this
    curve enters the formula through its inverse).  Constant 2 in the
    degenerate critical case p = q = 2.  A gap whose evaluation leaves
    float range raises RangeError.
    """
    if classify_regime(params) is Regime.SUBCRITICAL:
        raise RegimeError(f"curve gap needs pq >= 4, got pq={params.pq!r}")
    u = _real(u, "position")
    if u < 1.0:
        raise DomainError(f"position must be >= 1, got {u!r}")
    return _finite_value(1.0 + u - fpow(fpow(u, 2.0 / params.p) - 1.0, 2.0 / params.q), "V_dist")


def fixed_curves(params: Params, coord: float) -> tuple[float, float]:
    """Evaluate both reflection-fixed curves at one coordinate value.

    Returns (x_fix, y_fix) where x_fix = sqrt(1 + coord^q) is the x
    fixed by the first reflection at height y = coord and y_fix =
    sqrt(1 + coord^p) is the y fixed by the second at x = coord.
    Either value beyond float range raises RangeError.
    """
    c = _real(coord, "coordinate", positive=True)
    x_fix = _finite_value(math.sqrt(1.0 + fpow(c, params.q)), "fixed_curves")
    return x_fix, _finite_value(math.sqrt(1.0 + fpow(c, params.p)), "fixed_curves")


def _central_jacobian(fn, a: float, b: float, h: float):
    """2x2 Jacobian of fn: R^2 -> R^2 at (a, b) by central differences."""
    fa1 = fn((a + h, b))
    fa0 = fn((a - h, b))
    fb1 = fn((a, b + h))
    fb0 = fn((a, b - h))
    inv = 1.0 / (2.0 * h)
    return (
        ((fa1[0] - fa0[0]) * inv, (fb1[0] - fb0[0]) * inv),
        ((fa1[1] - fa0[1]) * inv, (fb1[1] - fb0[1]) * inv),
    )


def symplectic_residual(params: Params, pt: PointPos) -> float:
    """|det J - 1| for the log-conjugated composed map at pt.

    J is the central-difference Jacobian with step JAC_STEP.  The map
    preserves d(log x) wedge d(log y), so the residual bundles the
    conservation property with the differencing error; it sits well
    below 1e-4 at moderate points.
    """
    a = math.log(pt.x)
    b = math.log(pt.y)
    jac = _central_jacobian(lambda ab: mu_x_log(params, ab), a, b, JAC_STEP)
    return abs(det2(jac) - 1.0)
