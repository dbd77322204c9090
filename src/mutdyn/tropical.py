"""Piecewise-linear shadow of the exchange map on the whole plane.

Replacing multiplication by addition and addition by max turns the
birational exchange map into a piecewise-linear homeomorphism of the
plane.  The two factors keep determinant -1 on every linear branch,
their composition keeps determinant +1, and a piecewise-quadratic
function is conserved exactly along orbits.  The dynamics depend on
the product pq the same way as for the birational map: certain
products below 4 give global periodicity, the critical product gives
linear escape, larger products give hyperbolic escape.

Sign conventions.  The composed map is the second factor after the
first.  Where a branch test lands exactly on zero the negative branch
is taken; the positive-part function carries no tolerance.  An image
that leaves float range raises RangeError, as for the birational map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RangeError
from .floatops import EQ_TOL, PERIOD_TOL
from .params import Params, _kappa, _nu, kappa_nu, theta_of

__all__ = [
    "PointPL",
    "SignPair",
    "PolarAngle",
    "mu1_c",
    "mu2_c",
    "mu_c",
    "mu_c_inv",
    "hat_mu1",
    "hat_mu2",
    "reflect_x",
    "reflect_y",
    "f_quad",
    "g_quad",
    "phi",
    "tau1",
    "tau2",
    "tau",
    "chebyshev_u",
    "tau_closed_form",
    "tau_trig_form",
    "polar_angle",
    "detect_period",
    "sign_pair",
    "first_sign_coherent_index",
    "slope_angle_delta",
    "mu1_c_branch_matrices",
    "mu2_c_branch_matrices",
    "mu_c_branch_matrices",
]


@dataclass(frozen=True)
class PointPL:
    """A point of the plane, finite coordinates."""

    s: float
    t: float

    def __post_init__(self):
        s = float(self.s)
        t = float(self.t)
        if not (math.isfinite(s) and math.isfinite(t)):
            raise DomainError(f"coordinates must be finite, got ({self.s!r}, {self.t!r})")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)

    def as_tuple(self) -> tuple[float, float]:
        return (self.s, self.t)


class SignPair(NamedTuple):
    """Coordinate signs in {-1, 0, 1}, zero meaning inside the zero band."""

    first: int
    second: int


@dataclass(frozen=True)
class PolarAngle:
    """A lifted polar angle together with the branch cut it was lifted over."""

    theta: float
    cut: float


def _finite_point(s: float, t: float, where: str) -> PointPL:
    # an image out of float range is a RangeError, not PointPL's DomainError
    if not (math.isfinite(s) and math.isfinite(t)):
        raise RangeError(f"{where} left float range")
    return PointPL(s, t)


def mu1_c(params: Params, pt: PointPL) -> PointPL:
    """First factor: (s, t) -> (-s, t + p[s]+).

    Not an involution as a plane map (its inverse subtracts p[-s]+
    instead); it is one only in the mutation sense, where the second
    application acts through the sign-flipped exchange block.
    """
    t1 = pt.t + params.p * pt.s if pt.s > 0.0 else pt.t
    return _finite_point(-pt.s, t1, "mu1_c")


def mu2_c(params: Params, pt: PointPL) -> PointPL:
    """Second factor: (s, t) -> (s + q[t]+, -t)."""
    s1 = pt.s + params.q * pt.t if pt.t > 0.0 else pt.s
    return _finite_point(s1, -pt.t, "mu2_c")


def mu_c(params: Params, pt: PointPL) -> PointPL:
    """One step of the composed piecewise-linear map, second factor after first."""
    return mu2_c(params, mu1_c(params, pt))


def mu_c_inv(params: Params, pt: PointPL) -> PointPL:
    """Inverse composed step, built from the factor inverses."""
    # undo the second factor, then the first
    s1 = pt.s - params.q * -pt.t if -pt.t > 0.0 else pt.s
    t1 = -pt.t
    t2 = t1 - params.p * -s1 if -s1 > 0.0 else t1
    return _finite_point(-s1, t2, "mu_c_inv")


def hat_mu1(params: Params, pt: PointPL) -> PointPL:
    """Plain tropicalization of the first reflection: (s, t) -> (q[t]+ - s, t).

    A genuine involution; conjugating by the coordinate sign flips
    turns the pair of these into the factors above.
    """
    s1 = params.q * pt.t - pt.s if pt.t > 0.0 else -pt.s
    return _finite_point(s1, pt.t, "hat_mu1")


def hat_mu2(params: Params, pt: PointPL) -> PointPL:
    """Plain tropicalization of the second reflection: (s, t) -> (s, p[s]+ - t)."""
    t1 = params.p * pt.s - pt.t if pt.s > 0.0 else -pt.t
    return _finite_point(pt.s, t1, "hat_mu2")


def reflect_x(pt: PointPL) -> PointPL:
    """Sign flip of the first coordinate."""
    return PointPL(-pt.s, pt.t)


def reflect_y(pt: PointPL) -> PointPL:
    """Sign flip of the second coordinate."""
    return PointPL(pt.s, -pt.t)


def _quad_coefs(p, q):
    # ps^2 + pq st + qt^2 is evaluated as (sqrt(p)s + sqrt(q)t)^2 plus a
    # cross term with coefficient pq - 2 sqrt(pq).  The rewritten
    # coefficient kills the catastrophic cancellation the monomial sum
    # suffers near pq = 4 once orbits grow; pq - 4 is exact there.
    # np.sqrt rounds as math.sqrt does and takes floats and arrays alike.
    kappa = _kappa(p, q)
    return np.sqrt(p), np.sqrt(q), kappa * (p * q - 4.0) / (kappa + 2.0)


def _quad(coefs, s, t):
    rp, rq, coef = coefs
    lin = rp * s + rq * t
    return lin * lin + coef * (s * t)


def _conserved(coefs, s, t):
    # the mirror quadratic, the plain one at (s, -t), on the open second
    # quadrant; the plain one everywhere else
    return _quad(coefs, s, np.where((s < 0.0) & (t > 0.0), -t, t))


def _scalar(evaluate, params: Params, s: float, t: float) -> float:
    # numpy scalars warn on overflow where Python floats go to inf quietly
    with np.errstate(over="ignore", invalid="ignore"):
        return float(evaluate(_quad_coefs(params.p, params.q), s, t))


def f_quad(params: Params, pt: PointPL) -> float:
    """The quadratic ps^2 + pq st + qt^2."""
    return _scalar(_quad, params, pt.s, pt.t)


def g_quad(params: Params, pt: PointPL) -> float:
    """The mirror quadratic ps^2 - pq st + qt^2, i.e. f at (s, -t)."""
    return _scalar(_quad, params, pt.s, -pt.t)


def phi(params: Params, pt: PointPL) -> float:
    """The conserved piecewise-quadratic of the composed map.

    Equals the mirror quadratic on the open second quadrant and the
    plain one everywhere else; invariant under mu_c exactly in exact
    arithmetic, to rounding here.
    """
    return _scalar(_conserved, params, pt.s, pt.t)


def tau1(params: Params, pt: PointPL) -> PointPL:
    """Growth branch of the first factor: (s, t) -> (-s, t + ps)."""
    return _finite_point(-pt.s, pt.t + params.p * pt.s, "tau1")


def tau2(params: Params, pt: PointPL) -> PointPL:
    """Growth branch of the second factor: (s, t) -> (s + qt, -t)."""
    return _finite_point(pt.s + params.q * pt.t, -pt.t, "tau2")


def tau(params: Params, pt: PointPL) -> PointPL:
    """Linearization of the composed map: both factors on their growth branch.

    As a matrix, ((pq - 1, q), (-p, -1)).  Evaluated as the two-stage
    composition so that it agrees with mu_c bit for bit wherever the
    branch quantities are strictly positive.
    """
    return _finite_point(*_tau_step(params.p, params.q, pt.s, pt.t), "tau")


def _tau_step(p, q, s, t):
    # tau2 after tau1 on floats or arrays alike, with their bits
    t1 = t + p * s
    return -s + q * t1, -t1


def _columns(*values):
    # float arrays broadcast together, one column per orbit of an array pass
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))


def _pl_step(p, q, s, t):
    # the composed step on arrays, the same arithmetic as _record_orbit's
    # scalar loop; callers silence the overflow the unused branch can hit
    ns = -s
    t1 = np.where(s > 0.0, t + p * s, t)
    return np.where(t1 > 0.0, ns + q * t1, ns), -t1


def chebyshev_u(n: int, x: float) -> float:
    """Second-kind Chebyshev value U_n(x) by upward recurrence.

    Supports n >= -1 with U_{-1} = 0; on the interval (-1, 1) it
    matches sin((n+1) theta)/sin(theta) at x = cos(theta).
    """
    n = int(n)
    if n < -1:
        raise DomainError(f"index must be >= -1, got {n}")
    return float(_cheb_table(x, n)[n + 2])


def _cheb_table(x, top: int) -> np.ndarray:
    # values U_{-2}..U_{top} of the recurrence at x, U_k in row k + 2 and
    # one column per entry of an array x; every row depends only on the
    # rows above it, so a longer table keeps the bits of a shorter one.
    # U_0 is seeded rather than computed, since 2x * 0 is nan at infinite x
    x = np.asarray(x, dtype=float)
    vals = np.empty((max(top, 0) + 3,) + x.shape)
    vals[0], vals[1], vals[2] = -1.0, 0.0, 1.0
    two_x = 2.0 * x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(3, len(vals)):
            vals[k] = two_x * vals[k - 1] - vals[k - 2]
    return vals


def _iterate_count(n) -> int:
    n = int(n)
    if n < 0:
        raise DomainError(f"iterate count must be >= 0, got {n}")
    return n


def _form_pair(forms, n: int) -> tuple[PointPL, PointPL]:
    sn, tn, tn_t = (float(v[n]) for v in forms)
    return _finite_point(sn, tn, "closed form"), _finite_point(-sn, tn_t, "closed form")


def _closed_forms(kappa, nu, top: int, s, t):
    # tau^n (s, t) as (sn, tn), and tn_t, the second coordinate of tau1
    # on top, for n = 0..top in rows; kappa, nu, s and t broadcast to
    # the columns.  Row n reads U_{2n-2}..U_{2n+1} of one table, with
    # the index -2 at n = 0 taking the standard extension's value -1
    kappa, nu, s, t = _columns(kappa, nu, s, t)
    u = _cheb_table(kappa / 2.0, 2 * top + 1)
    u_lo, u_odd, u_even, u_hi = u[0:-3:2], u[1:-2:2], u[2:-1:2], u[3::2]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sn = s * u_even + t * (u_odd / nu)
        tn = -s * (nu * u_odd) - t * u_lo
        tn_t = s * (nu * u_hi) + t * u_even
    return sn, tn, tn_t


def _trig_forms(theta, nu, top: int, s, t):
    # the rows of _closed_forms through sines of multiples of theta, each
    # math.sin of the product k * theta (U_k stands for sin((k + 1) theta),
    # and the slices are named by that k)
    th, nu, s, t = _columns(theta, nu, s, t)
    flat = th.ravel().tolist()
    sines = np.array([[math.sin(k * x) for x in flat] for k in range(-1, 2 * top + 3)])
    sines = sines.reshape((-1,) + th.shape)
    sth = sines[2]
    u_lo, u_odd, u_even, u_hi = sines[0:-3:2], sines[1:-2:2], sines[2:-1:2], sines[3::2]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sn = s * u_even / sth + t * u_odd / (nu * sth)
        tn = -s * nu * u_odd / sth - t * u_lo / sth
        tn_t = s * nu * u_hi / sth + t * u_even / sth
    return sn, tn, tn_t


def tau_closed_form(params: Params, n: int, pt: PointPL) -> tuple[PointPL, PointPL]:
    """n-th iterate of tau, and the first growth branch applied on top.

    Both are linear in the start with coefficients built from
    second-kind Chebyshev values at kappa/2; the index -2 arising at
    n = 0 uses the standard extension to the value -1.  Returns the
    pair (tau^n pt, tau1 tau^n pt).
    """
    n = _iterate_count(n)
    kappa, nu = kappa_nu(params)
    return _form_pair(_closed_forms(kappa, nu, n, pt.s, pt.t), n)


def tau_trig_form(params: Params, n: int, pt: PointPL) -> tuple[PointPL, PointPL]:
    """The same pair through sines of multiples of theta; pq < 4 only."""
    n = _iterate_count(n)
    th = theta_of(params)
    _, nu = kappa_nu(params)
    return _form_pair(_trig_forms(th, nu, n, pt.s, pt.t), n)


def polar_angle(params: Params, pt: PointPL) -> PolarAngle:
    """Angle of pt lifted to the branch (cut, cut + 2 pi].

    The cut runs along the half-line sqrt(p) s + sqrt(q) t = 0 with
    s > 0; a point on the cut itself reports cut + 2 pi.  For pq >= 4
    and a start whose conserved quadratic is non-negative, orbit angles
    with this lift never wrap around and are non-increasing.  A
    negative conserved value (possible only for pq > 4) confines the
    orbit to the open fourth quadrant, where its angle climbs toward
    the expanding invariant direction.  The cut lies inside that
    negative cone (on it the quadratic is pq (2 - sqrt(pq)) u^2), so
    such an orbit crosses the cut at most once, its lifted angle
    dropping by about 2 pi there and never falling anywhere else.
    """
    if pt.s == 0.0 and pt.t == 0.0:
        raise DomainError("polar angle undefined at the origin")
    theta, cut = _lift(params, pt.s, pt.t)
    return PolarAngle(float(theta), cut)


def _lift(params: Params, s, t):
    # atan2 lifted over the cut; np.arctan2 serves floats and arrays
    # alike, so a single point and a whole orbit get the same bits
    cut = math.atan(-float(_nu(params.p, params.q)))
    raw = np.arctan2(t, s)
    return np.where(raw > cut, raw, raw + 2.0 * math.pi), cut


# steps detect_period records at a time
_PERIOD_BLOCK = 4096


def detect_period(params: Params, pt: PointPL, max_steps: int):
    """Smallest k <= max_steps with the k-th iterate back at the start.

    Return is detected within PERIOD_TOL scaled by max(1, start norm).
    None when no return occurs within the horizon; iterates leaving
    float range also end the search with None.
    """
    max_steps = int(max_steps)
    if max_steps < 1:
        raise DomainError(f"max_steps must be >= 1, got {max_steps}")
    s0, t0 = pt.s, pt.t
    bound = PERIOD_TOL * max(1.0, abs(s0), abs(t0))
    # recorded block by block, so a long horizon holds one block at a time
    s, t, done = s0, t0, 0
    while done < max_steps:
        ss, ts, trunc = _record_orbit(params, s, t, min(_PERIOD_BLOCK, max_steps - done))
        for k in range(1, len(ss)):
            if abs(ss[k] - s0) <= bound and abs(ts[k] - t0) <= bound:
                return done + k
        if trunc is not None:
            return None
        done += len(ss) - 1
        s, t = ss[-1], ts[-1]
    return None


def _record_orbit(params: Params, s: float, t: float, steps: int):
    # the composed step with every iterate kept: lists of s and t from
    # the start on, and the 1-based step that left float range (None if
    # none did; the lists end before it).  The step is written out here
    # because a call per step costs measurably in long loops.
    p, q = params.p, params.q
    ss = [s]
    ts = [t]
    trunc = None
    for i in range(1, steps + 1):
        t1 = t + p * s if s > 0.0 else t
        s = -s + q * t1 if t1 > 0.0 else -s
        t = -t1
        if not (math.isfinite(s) and math.isfinite(t)):
            trunc = i
            break
        ss.append(s)
        ts.append(t)
    return ss, ts, trunc


def _record_orbits(p, q, s0, t0, steps: int):
    # _record_orbit for many starts at once, one column per start after
    # p, q, s0 and t0 broadcast: (steps + 1)-row arrays of s and t, and
    # per column the 1-based step that left float range (None if none
    # did; rows from that step on hold no iterates)
    p, q, s, t = _columns(p, q, s0, t0)
    ss = np.empty((steps + 1,) + s.shape)
    ts = np.empty_like(ss)
    ss[0], ts[0] = s, t
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            s, t = _pl_step(p, q, s, t)
            ss[i], ts[i] = s, t
    bad = ~(np.isfinite(ss) & np.isfinite(ts))
    first = bad.argmax(axis=0)
    trunc = [int(i) if b else None for i, b in zip(first.ravel(), bad.any(axis=0).ravel())]
    return ss, ts, trunc


def sign_pair(pt: PointPL, scale: float | None = None) -> SignPair:
    """Coordinate signs with a zero band of EQ_TOL times max(1, scale).

    The scale defaults to the point's own infinity norm; pass an
    orbit-wide scale to keep the band consistent along a trajectory.
    """
    ref = _sup_norm(pt.s, pt.t) if scale is None else float(scale)
    first, second = _banded_signs(pt.s, pt.t, ref)
    return SignPair(int(first), int(second))


def _sup_norm(s, t):
    # max(|s|, |t|) per point, nan where either is nan
    return np.maximum(np.abs(s), np.abs(t))


def _band(scale):
    # the zero band EQ_TOL max(1, scale); fmax keeps it at EQ_TOL for a
    # nan scale
    return EQ_TOL * np.fmax(1.0, scale)


def _banded_signs(s, t, scale):
    # signs in {-1, 0, 1}, zero inside the band of scale
    band = _band(scale)
    return tuple(np.where(np.abs(v) <= band, 0, np.where(v > 0.0, 1, -1)) for v in (s, t))


def first_sign_coherent_index(params: Params, pt: PointPL, cap: int = 500):
    """Least N with signs (+, -) for every iterate from N through cap.

    None when no such N exists within the horizon.  The map commutes
    with positive dilations and the sign band is relative, so iterates
    are renormalized when they grow huge; that dodges overflow without
    touching any sign decision.
    """
    cap = int(cap)
    if cap < 0:
        raise DomainError(f"cap must be >= 0, got {cap}")
    return _sign_coherent_indices(params.p, params.q, pt.s, pt.t, cap)[0]


def _sign_coherent_indices(p, q, s0, t0, cap: int) -> list:
    # first_sign_coherent_index for many starts at once, one column per
    # start after p, q, s0 and t0 broadcast.  The infinity norm of the
    # current iterates serves both the band and the renormalization;
    # each column past 1e100 is divided by its own norm, after which its
    # larger coordinate is exactly +-1.
    p, q, s, t = _columns(p, q, s0, t0)
    last_bad = np.full(s.shape, -1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm = _sup_norm(s, t)
        for n in range(cap + 1):
            band = _band(norm)
            last_bad[~((s > band) & (t < -band))] = n
            if n == cap:
                break
            s, t = _pl_step(p, q, s, t)
            norm = _sup_norm(s, t)
            big = norm > 1e100
            if big.any():
                s = np.where(big, s / norm, s)
                t = np.where(big, t / norm, t)
                norm = np.where(big, 1.0, norm)
    return [int(b) + 1 if b < cap else None for b in last_bad.ravel()]


def slope_angle_delta(params: Params, pt: PointPL, image: PointPL) -> float:
    """Angle swept from pt to image in one step, by the closed formula.

    The numerator is the conserved quadratic at pt and the denominator
    the dot product of the two points.  pt must lie in the open fourth
    quadrant and the image must keep a positive first coordinate,
    which is the configuration the escape regimes settle into.
    """
    if not (pt.s > 0.0 and pt.t < 0.0):
        raise DomainError("pt must lie in the open fourth quadrant")
    if not image.s > 0.0:
        raise DomainError("image must have a positive first coordinate")
    num = f_quad(params, pt)
    den = pt.s * image.s + pt.t * image.t
    return math.atan2(num, den)


def mu1_c_branch_matrices(params: Params):
    """Linear branches of the first factor, s > 0 branch first; dets are -1."""
    p = params.p
    return (
        ((-1.0, 0.0), (p, 1.0)),
        ((-1.0, 0.0), (0.0, 1.0)),
    )


def mu2_c_branch_matrices(params: Params):
    """Linear branches of the second factor, t > 0 branch first; dets are -1."""
    q = params.q
    return (
        ((1.0, q), (0.0, -1.0)),
        ((1.0, 0.0), (0.0, -1.0)),
    )


def mu_c_branch_matrices(params: Params):
    """Linear branches of the composed map; every determinant is +1.

    Order: (s > 0, intermediate t > 0), (s > 0, not), (s <= 0, t > 0),
    (s <= 0, not).  The determinants are exact even in floating point:
    the first branch's det works out to fl(pq) - (fl(pq) - 1), which
    is exactly 1 for any representable product.
    """
    p, q = params.p, params.q
    return (
        ((p * q - 1.0, q), (-p, -1.0)),
        ((-1.0, 0.0), (-p, -1.0)),
        ((-1.0, q), (0.0, -1.0)),
        ((-1.0, 0.0), (0.0, -1.0)),
    )
