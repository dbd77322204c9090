"""Sampling the level sets of the conserved piecewise-quadratic.

The conserved function phi is positively homogeneous of degree 2, so
the level set {phi = c} is the radial graph r(w) = sqrt(c / phi(w)),
with phi(w) = phi(cos w, sin w), over the directions w where phi has
the sign of c.  The plain quadratic rules w in [-pi, pi/2], the closed
complement of the open second quadrant; its mirror (t -> -t) rules
w in [pi/2, pi].  Each region is cut at the directions where the
radius reaches the truncation radius R, roots of a trigonometric
quadratic solved in closed form, and every stretch with
phi(w) / c >= 1 / R^2 is one piece.  Axis ends are set exactly, so
adjacent pieces meet without refinement.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, RangeError, _count, _real
from .params import Params, Regime, classify_regime
from .tropical import _conserved, _quad, _quad_coefs

__all__ = ["levelset_points", "levelset_residual"]

# (first direction, last direction, sign applied to t): the plain
# quadratic is walked clockwise from the top axis, the mirror
# anticlockwise, so both start at the top and end on the left axis
_REGIONS = ((0.5 * math.pi, -math.pi, 1.0), (0.5 * math.pi, math.pi, -1.0))


def _check_level(level) -> float:
    level = _real(level, "level")
    if level == 0.0:
        raise DomainError(f"level must be non-zero, got {level!r}")
    return level


def _char_radius(params: Params, level: float) -> float:
    # geometric scale of the level curve: the larger axis intercept of a
    # positive level; a negative one never meets the axes, and its
    # nearest radius sqrt(c / m) stands in, m = (p + q)/2 - hypot((p - q)/2,
    # pq/2) the minimum of phi on the unit circle.  Up to pq = 4, m >= 0
    # and a negative level has no points
    p, q = params.p, params.q
    if level > 0.0:
        return math.sqrt(level * max(1.0 / p, 1.0 / q))
    m = 0.5 * (p + q) - math.hypot(0.5 * (p - q), 0.5 * params.pq)
    return math.sqrt(level / m) if m < 0.0 else math.inf


def _accuracy_radius(params: Params, level: float) -> float:
    # beyond this radius a 64-bit evaluation of the quadratic cannot
    # pin the level to the advertised relative accuracy: its terms weigh
    # up to (p + q + pq) r^2.  Where phi < 0, ps^2 + qt^2 < pq |st| and
    # |st| <= r^2 / 2, so a negative level's terms weigh under pq r^2
    eps = 2.220446049250313e-16
    weight = params.p + params.q + params.pq if level > 0.0 else params.pq
    return math.sqrt(1e-9 * abs(level) / (8.0 * eps * weight))


def _radius(level: float, value):
    # sqrt(level / value), the root taken before the quotient where the
    # quotient overflows though the radius need not; a radius that
    # leaves float range all the same raises RangeError
    with np.errstate(over="ignore", divide="ignore"):
        ratio = np.divide(level, value)
        r = np.where(np.isinf(ratio), np.sqrt(abs(level)) / np.sqrt(np.abs(value)), np.sqrt(ratio))
    if not np.isfinite(r).all():
        raise RangeError(f"level {level!r} has points beyond float range")
    return r


def _cuts(params: Params, k: float, first: float, last: float, flip: float):
    # region ends plus the directions inside where phi(w) = k, in walking
    # order; phi(w) - k = a + rho cos(2w - delta) with the harmonic
    # coefficients of p cos^2 + flip pq cos sin + q sin^2
    p, q = params.p, params.q
    a = 0.5 * (p + q) - k
    rho = math.hypot(0.5 * (p - q), 0.5 * params.pq)
    cuts = {first, last}
    if abs(a) <= rho:
        delta = math.atan2(flip * 0.5 * params.pq, 0.5 * (p - q))
        half = math.acos(-a / rho)
        roots = [0.5 * (delta + sign * half) + n * math.pi for sign in (-1, 1) for n in (-1, 0, 1)]
        cuts.update(w for w in roots if min(first, last) < w < max(first, last))
    return sorted(cuts, reverse=last < first)


def levelset_points(params: Params, level: float, samples_per_piece: int = 256):
    """Polylines tracing the level set {phi = level} of the conserved function.

    Returns a tuple of pieces, each a tuple of ``samples_per_piece``
    (s, t) pairs at directions evenly spaced in w: the plain-quadratic
    pieces first, walked clockwise from the top axis, then the mirrored
    ones on the closed second quadrant.  A negative level is drawn too;
    above the critical product it is one piece in the open fourth
    quadrant.  Below the critical product the curve is an ellipse and
    is drawn whole.  Otherwise pieces stop at radius 8 times the
    curve's axis scale, tightened where needed so every emitted
    point evaluates back to the level within 1e-9 relative.  A level
    with no point inside that radius raises ``DomainError``, so does a
    negative level below the critical product, whose set is empty.
    """
    level = _check_level(level)
    samples_per_piece = _count(samples_per_piece, "samples_per_piece", 2)
    r_cap = math.inf  # below the critical product the ellipse is drawn whole
    if classify_regime(params) is not Regime.SUBCRITICAL:
        r_cap = min(8.0 * _char_radius(params, level), _accuracy_radius(params, level))
    coefs = _quad_coefs(params.p, params.q)
    pieces = []
    for first, last, flip in _REGIONS:
        cuts = _cuts(params, level / r_cap**2, first, last, flip)
        for a, b in zip(cuts, cuts[1:]):
            mid = 0.5 * (a + b)
            if _quad(coefs, math.cos(mid), flip * math.sin(mid)) / level < r_cap**-2:
                continue
            w = np.linspace(a, b, samples_per_piece)
            r = _radius(level, _quad(coefs, np.cos(w), flip * np.sin(w)))
            s, t = r * np.cos(w), r * np.sin(w)
            if a == first:  # only a positive level reaches the axis ends
                s[0], t[0] = 0.0, float(_radius(level, params.q))
            if b == last:
                s[-1], t[-1] = -float(_radius(level, params.p)), 0.0
            pieces.append(tuple(zip(s.tolist(), t.tolist())))
    if not pieces:
        raise DomainError(f"level {level!r} has no point within radius {r_cap!r}")
    return tuple(pieces)


def levelset_residual(params: Params, pieces, level: float) -> float:
    """Largest deviation of sampled points from the level, relative to |level|."""
    level = _check_level(level)
    try:
        pts = np.array([pt for piece in pieces for pt in piece], dtype=float).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("coordinates must be pairs of real numbers") from None
    if not np.isfinite(pts).all():
        raise DomainError("coordinates must be finite")
    s, t = pts[:, 0], pts[:, 1]
    coefs = _quad_coefs(params.p, params.q)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _conserved(coefs, s, t)
        # subnormal exponents put a level of order 1 out near radius
        # 1e155, where s t overflows though phi does not.  There |s| > 1,
        # so s is scaled down by 2^512 and sqrt(p) and the cross
        # coefficient up: a power of two changes no rounding, and
        # sqrt(p) 2^512 stays finite
        far = ~np.isfinite(vals)
        rp, rq, coef = coefs
        k = 2.0**512
        vals[far] = _conserved((rp * k, rq, coef * k), s[far] / k, t[far])
    return float(np.max(np.abs(vals - level), initial=0.0)) / abs(level)
