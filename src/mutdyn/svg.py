"""Minimal deterministic SVG rendering for orbits and level sets.

No plotting library is involved: the output is assembled from string
templates with fixed 3-decimal pixel coordinates, so identical inputs
produce identical bytes.
"""
from __future__ import annotations

import math

from .errors import DomainError, _float, _pair
from .orbits import Orbit

__all__ = ["render_svg"]

# canvas geometry and styling
_WIDTH = 640
_HEIGHT = 480
_MARGIN_FRACTION = 0.08
_POINT_RADIUS = 2.0
_STROKE = "#1f4e79"
_AXIS_STROKE = "#999999"
_BACKGROUND = "#ffffff"


def _gather_polylines(content):
    if isinstance(content, Orbit):
        pts = [(float(a), float(b)) for a, b in content.points]
        return [pts], True
    polylines = []
    try:
        for piece in content:
            pts = [tuple(_float(v, "coordinates") for v in _pair(pt, "a point")) for pt in piece]
            if pts:
                polylines.append(pts)
    except TypeError:
        # the content or one of its pieces does not iterate
        raise DomainError("content must be an Orbit or point sequences") from None
    if not polylines:
        raise DomainError("nothing to render")
    return polylines, False


def render_svg(content) -> str:
    """Render an orbit (polyline plus point markers) or level-set pieces.

    content is either an Orbit or an iterable of point sequences.  The
    data box is fitted into a 640 x 480 canvas with an 8% margin, y axis
    pointing up, aspect ratio not preserved; coordinate axes are drawn
    where they cross the box.
    """
    polylines, is_orbit = _gather_polylines(content)
    xs = [x for line in polylines for x, _ in line]
    ys = [y for line in polylines for _, y in line]
    if not all(math.isfinite(v) for v in xs + ys):
        raise DomainError("cannot render non-finite coordinates")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo <= 0.0:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi - y_lo <= 0.0:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    w, h = _WIDTH, _HEIGHT
    mx = w * _MARGIN_FRACTION
    my = h * _MARGIN_FRACTION
    sx = (w - 2.0 * mx) / (x_hi - x_lo)
    sy = (h - 2.0 * my) / (y_hi - y_lo)

    def px(x: float) -> float:
        return mx + (x - x_lo) * sx

    def py(y: float) -> float:
        return h - my - (y - y_lo) * sy

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="{_BACKGROUND}"/>',
    ]
    if x_lo < 0.0 < x_hi:
        out.append(
            f'<line x1="{px(0.0):.3f}" y1="{py(y_lo):.3f}" '
            f'x2="{px(0.0):.3f}" y2="{py(y_hi):.3f}" '
            f'stroke="{_AXIS_STROKE}" stroke-width="1"/>'
        )
    if y_lo < 0.0 < y_hi:
        out.append(
            f'<line x1="{px(x_lo):.3f}" y1="{py(0.0):.3f}" '
            f'x2="{px(x_hi):.3f}" y2="{py(0.0):.3f}" '
            f'stroke="{_AXIS_STROKE}" stroke-width="1"/>'
        )
    for line in polylines:
        if len(line) > 1:
            path = " ".join(
                ("M" if i == 0 else "L") + f"{px(x):.3f},{py(y):.3f}"
                for i, (x, y) in enumerate(line)
            )
            out.append(
                f'<path d="{path}" fill="none" stroke="{_STROKE}" stroke-width="1.5"/>'
            )
    if is_orbit:
        for x, y in polylines[0]:
            out.append(
                f'<circle cx="{px(x):.3f}" cy="{py(y):.3f}" r="{_POINT_RADIUS}" '
                f'fill="{_STROKE}"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
