"""Sampling the level sets of the conserved piecewise-quadratic.

The conserved function equals one quadratic on the closed complement
of the open second quadrant and its mirror on the open second
quadrant, so a level set is assembled from conic pieces: each conic is
parameterized in closed form (ellipse below the critical product, a
degenerate pair of lines at it, hyperbola branches above) and clipped
to the region where its quadratic is the active one.  Piece endpoints
on the axes are refined by bisection, so adjacent pieces meet to high
accuracy.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .params import Params, Regime, classify_regime
from .tropical import _conserved, _quad_coefs

__all__ = ["levelset_points", "levelset_residual"]

# f pieces live everywhere except the open second quadrant; g pieces
# live on the closed second quadrant.  Predicates are exact sign tests.


def _keep_f(s: float, t: float) -> bool:
    return not (s < 0.0 and t > 0.0)


def _keep_g(s: float, t: float) -> bool:
    return s <= 0.0 and t >= 0.0


def _refine(point_fn, keep, sig_in: float, sig_out: float) -> float:
    # shrink toward the transition, returning a parameter on the kept side
    for _ in range(80):
        mid = 0.5 * (sig_in + sig_out)
        if mid == sig_in or mid == sig_out:
            break
        if keep(*point_fn(mid)):
            sig_in = mid
        else:
            sig_out = mid
        if abs(sig_out - sig_in) <= 1e-13 * (1.0 + abs(sig_in)):
            break
    return sig_in


def _clip_curve(point_fn, keep, grid: np.ndarray, circular: bool, samples: int):
    """Maximal kept runs of a parameterized curve, endpoints refined."""
    mask = np.array([keep(*point_fn(g)) for g in grid], dtype=bool)
    m = len(grid)
    if not mask.any():
        return []
    if circular:
        span = (grid[1] - grid[0]) * m
        if mask.all():
            pts = [point_fn(g) for g in grid]
            pts.append(pts[0])
            return [pts]
        # unroll one period starting from a rejected probe, so every
        # kept run is interior to the window and has rejected neighbours
        off = int(np.argmin(mask))
        big_grid = np.concatenate([grid, grid + span])
        big_mask = np.concatenate([mask, mask])
        lo, hi = off, off + m
    else:
        big_grid, big_mask = grid, mask
        lo, hi = 0, m
    pieces = []
    i = lo
    while i < hi:
        if not big_mask[i]:
            i += 1
            continue
        j = i
        while j + 1 < hi and big_mask[j + 1]:
            j += 1
        sig_a = big_grid[i]
        if i > 0 and not big_mask[i - 1]:
            sig_a = _refine(point_fn, keep, big_grid[i], big_grid[i - 1])
        sig_b = big_grid[j]
        if j + 1 < len(big_mask) and not big_mask[j + 1]:
            sig_b = _refine(point_fn, keep, big_grid[j], big_grid[j + 1])
        pieces.append([point_fn(s) for s in np.linspace(sig_a, sig_b, samples)])
        i = j + 1
    return pieces


def _form_matrix(p: float, q: float) -> np.ndarray:
    h = 0.5 * p * q
    return np.array([[p, h], [h, q]], dtype=float)


def _char_radius(params: Params, level: float) -> float:
    # geometric scale of the level curve: the larger axis intercept
    return math.sqrt(level * max(1.0 / params.p, 1.0 / params.q))


def _accuracy_radius(params: Params, level: float) -> float:
    # beyond this radius a 64-bit evaluation of the quadratic cannot
    # pin the level to the advertised relative accuracy
    eps = 2.220446049250313e-16
    weight = params.p + params.q + params.pq
    return math.sqrt(1e-9 * level / (8.0 * eps * weight))


def _conic_pieces(params: Params, level: float, mirrored: bool, samples: int, extent: float):
    p, q = params.p, params.q
    keep = _keep_g if mirrored else _keep_f
    # the mirrored quadratic is the plain one at (s, -t); parameterize
    # the plain conic and flip the sample, so both share one code path
    a_mat = _form_matrix(p, q)
    vals, vecs = np.linalg.eigh(a_mat)
    regime = classify_regime(params)
    r_cap = min(extent * _char_radius(params, level), _accuracy_radius(params, level))

    def through(xi: float, eta: float):
        s = vecs[0, 0] * xi + vecs[0, 1] * eta
        t = vecs[1, 0] * xi + vecs[1, 1] * eta
        return (s, -t) if mirrored else (s, t)

    if regime is Regime.SUBCRITICAL:
        ra = math.sqrt(level / vals[0])
        rb = math.sqrt(level / vals[1])

        def pt(alpha: float):
            return through(ra * math.cos(alpha), rb * math.sin(alpha))

        grid = np.linspace(0.0, 2.0 * math.pi, 4 * max(samples, 64), endpoint=False)
        return _clip_curve(pt, keep, grid, circular=True, samples=samples)

    if regime is Regime.CRITICAL:
        rp = math.sqrt(p)
        rq = math.sqrt(q)
        root = math.sqrt(level)
        den = p + q
        pieces = []
        for r in (root, -root):
            base = (r * rp / den, r * rq / den)
            dvec = (rq / math.sqrt(den), -rp / math.sqrt(den))

            def pt(sig: float, base=base, dvec=dvec):
                s = base[0] + sig * dvec[0]
                t = base[1] + sig * dvec[1]
                return (s, -t) if mirrored else (s, t)

            grid = np.linspace(-r_cap, r_cap, 4 * max(samples, 64))
            pieces.extend(_clip_curve(pt, keep, grid, circular=False, samples=samples))
        return pieces

    # supercritical: vals[0] < 0 < vals[1]; the two branches sit at
    # positive and negative coefficient along the positive eigenvector
    ra = math.sqrt(level / vals[1])
    rb = math.sqrt(level / -vals[0])
    reach = max(ra, rb)
    sig_max = math.acosh(max(2.0, r_cap / reach))
    pieces = []
    for branch in (1.0, -1.0):

        def pt(sig: float, branch=branch):
            return through(rb * math.sinh(sig), branch * ra * math.cosh(sig))

        grid = np.linspace(-sig_max, sig_max, 4 * max(samples, 64))
        pieces.extend(_clip_curve(pt, keep, grid, circular=False, samples=samples))
    return pieces


def levelset_points(
    params: Params,
    level: float,
    samples_per_piece: int = 256,
    extent: float = 8.0,
):
    """Polylines tracing the level set of the conserved function.

    Returns a tuple of pieces, each a tuple of (s, t) pairs: the
    plain-quadratic pieces first, then the mirrored ones on the closed
    second quadrant.  Unbounded pieces are truncated at ``extent``
    times the curve's axis scale, tightened where needed so every
    emitted point evaluates back to the level within 1e-9 relative.
    """
    level = float(level)
    if not (math.isfinite(level) and level > 0.0):
        raise DomainError(f"level must be finite and positive, got {level!r}")
    samples_per_piece = int(samples_per_piece)
    if samples_per_piece < 2:
        raise DomainError(f"samples_per_piece must be >= 2, got {samples_per_piece}")
    extent = float(extent)
    if not (math.isfinite(extent) and extent >= 2.0):
        raise DomainError(f"extent must be >= 2, got {extent!r}")
    pieces = []
    for mirrored in (False, True):
        for piece in _conic_pieces(params, level, mirrored, samples_per_piece, extent):
            pieces.append(tuple((float(s), float(t)) for s, t in piece))
    return tuple(pieces)


def levelset_residual(params: Params, pieces, level: float) -> float:
    """Largest relative deviation of sampled points from the level."""
    pts = np.array([pt for piece in pieces for pt in piece], dtype=float).reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise DomainError("coordinates must be finite")
    vals = _conserved(_quad_coefs(params.p, params.q), pts[:, 0], pts[:, 1])
    return float(np.max(np.abs(vals - level), initial=0.0)) / level
