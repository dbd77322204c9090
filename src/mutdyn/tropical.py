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
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RangeError, _count, _float, _real
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
        object.__setattr__(self, "s", _real(self.s, "coordinates", "s"))
        object.__setattr__(self, "t", _real(self.t, "coordinates", "t"))

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
    try:
        return PointPL(s, t)
    except DomainError:
        raise RangeError(f"{where} left float range") from None


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
    # the cross term is dropped where s t is 0: an overflowing product pq
    # makes the coefficient inf, and inf * 0 would read nan.  Wherever the
    # coefficient is finite the bits are kept, since lin^2 + (+-0) = lin^2
    rp, rq, coef = coefs
    lin = rp * s + rq * t
    st = s * t
    return lin * lin + np.where(st == 0.0, 0.0, coef) * st


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
    try:
        return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"inputs must be reals that broadcast together: {exc}") from None


# 0 and 1 as 0-d arrays, which numpy compares and adds faster than floats
_ZERO, _ONE = np.zeros(()), np.ones(())


def _pl_step(p, q, shape):
    # the composed step for _blocks on columns of this shape, with
    # _record_orbit's IEEE operations (p * s + t is t + p * s, q * t - s is
    # -s + q * t) into out_s, out_t, which may be s, t: each input is read
    # before its row is written.  The scratch u, m serves a whole pass, and
    # np.putmask selects without temporaries.  Callers silence overflow
    u, m = np.empty(shape), np.empty(shape, dtype=bool)

    def step(s, t, out_s, out_t):
        np.add(np.multiply(p, s, out=u), t, out=u)
        out_t[...] = t
        np.putmask(out_t, np.greater(s, _ZERO, out=m), u)
        np.subtract(np.multiply(q, out_t, out=u), s, out=u)
        np.putmask(np.negative(s, out=out_s), np.greater(out_t, _ZERO, out=m), u)
        return out_s, np.negative(out_t, out=out_t)

    return step


# most iterates _blocks hands over at a time; steps between _record's range checks
_STEP_BLOCK = 64
# most numbers a _blocks buffer or a _record run holds, so that a wide
# pass takes fewer rows and its block temporaries keep one size
_BLOCK_NUMBERS = 8192


def _blocks(step, a, b, steps: int):
    # iterates 1..steps of step, a map of column pairs, from the columns
    # a, b, handed over as (first step, a rows, b rows) in blocks of
    # _STEP_BLOCK rows and _BLOCK_NUMBERS numbers at most (a row at the
    # least), the last one shorter.  step(a, b, row_a, row_b) writes into
    # the rows it is handed (a and b in one-row blocks) and returns them.
    # The buffers are reused, so a consumer reads each block before the
    # next; callers silence their step's overflow
    rows = min(_STEP_BLOCK, steps, max(1, _BLOCK_NUMBERS // max(1, np.size(a))))
    ba = np.empty((rows,) + np.shape(a))
    bb = np.empty_like(ba)
    pairs = [(ba[i, ...], bb[i, ...]) for i in range(rows)]
    first = 1
    while first <= steps:
        n = min(rows, steps + 1 - first)
        for row_a, row_b in pairs[:n]:
            a, b = step(a, b, row_a, row_b)
        yield first, ba[:n], bb[:n]
        first += n


def _record(run, a, b, steps: int):
    # a scalar orbit's iterates 1..steps in non-empty (first step, a list,
    # b list) runs of _BLOCK_NUMBERS // 2 at most (one at the least), the
    # last ending before the first iterate that is not finite.  run(a, b,
    # n, seq_a, seq_b) appends n steps' iterates and returns the last (a
    # call per step costs measurably).  Range is checked every _STEP_BLOCK
    # steps, so a pair once not finite must stay so
    isfinite, first = math.isfinite, 1
    while first <= steps:
        seq_a, seq_b = [], []
        n, done = min(_BLOCK_NUMBERS // 2 or 1, steps + 1 - first), 0
        while done < n:
            a, b = run(a, b, min(_STEP_BLOCK, n - done), seq_a, seq_b)
            if not (isfinite(a) and isfinite(b)):
                i = done
                while isfinite(seq_a[i]) and isfinite(seq_b[i]):
                    i += 1
                if i:
                    yield first, seq_a[:i], seq_b[:i]
                return
            done += _STEP_BLOCK
        yield first, seq_a, seq_b
        first += n


def chebyshev_u(n: int, x: float) -> float:
    """Second-kind Chebyshev value U_n(x) by upward recurrence.

    Supports n >= -1 with U_{-1} = 0; on the interval (-1, 1) it
    matches sin((n+1) theta)/sin(theta) at x = cos(theta).
    """
    n = _count(n, "index", -1)
    return float(_cheb_table(_float(x, "x"), n)[n + 2])


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
    # math.sin of the product k * theta, filled a row of k at a time (U_k
    # stands for sin((k + 1) theta), and the slices are named by that k)
    th, nu, s, t = _columns(theta, nu, s, t)
    sines = np.empty((2 * top + 4, th.size))
    for k, row in enumerate(sines, -1):
        row[:] = list(map(math.sin, (k * th.ravel()).tolist()))
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
    n = _count(n, "iterate count", 0)
    kappa, nu = kappa_nu(params)
    return _form_pair(_closed_forms(kappa, nu, n, pt.s, pt.t), n)


def tau_trig_form(params: Params, n: int, pt: PointPL) -> tuple[PointPL, PointPL]:
    """The same pair through sines of multiples of theta; pq < 4 only."""
    n = _count(n, "iterate count", 0)
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
    cut = _cut(params.p, params.q)
    return PolarAngle(float(_lift(cut, pt.s, pt.t)[0]), cut)


def _cut(p: float, q: float) -> float:
    # the lift's cut angle, from math.atan
    return math.atan(-float(_nu(p, q)))


def _lift(cut, s, t):
    # atan2 lifted over the cut, a float or one per column, and atan2
    # itself; np.arctan2 serves floats and arrays alike, so a single
    # point and a whole orbit get the same bits
    raw = np.arctan2(t, s)
    return np.where(raw > cut, raw, raw + 2.0 * math.pi), raw


def detect_period(params: Params, pt: PointPL, max_steps: int):
    """Smallest k <= max_steps with the k-th iterate back at the start.

    Return is detected within PERIOD_TOL scaled by max(1, start norm).
    None when no return occurs within the horizon; iterates leaving
    float range also end the search with None.
    """
    max_steps = _count(max_steps, "max_steps", 1)
    # a run at a time; a short period still pays for its run, up to 4096 steps
    return int(_first_returns(pt.s, pt.t, _record_orbit(params, pt.s, pt.t, max_steps))) or None


def _first_returns(s0, t0, runs):
    # detect_period's search per column of the starts s0, t0 over the (first
    # step, s, t) runs of its iterates, lists or rows: the first step back
    # within PERIOD_TOL max(1, start norm) in both coordinates (never at a
    # value that is not finite), 0 for none; stops once every column is back
    bound = PERIOD_TOL * np.maximum(1.0, _sup_norm(s0, t0))
    found = np.zeros(np.shape(s0), dtype=int)
    for first, ss, ts in runs:
        back = (abs(np.subtract(ss, s0)) <= bound) & (abs(np.subtract(ts, t0)) <= bound)
        found = np.where((found > 0) | ~back.any(axis=0), found, first + back.argmax(axis=0))
        if found.all():
            break
    return found


def _record_orbit(params: Params, s: float, t: float, steps: int):
    # the composed step's runs from _record: once a coordinate is not
    # finite, one of the two stays so at every later step
    def run(s, t, n, ss, ts):
        p, q = params.p, params.q
        for _ in range(n):
            if s > 0.0:
                t += p * s
            s = q * t - s if t > 0.0 else -s
            t = -t
            ss.append(s)
            ts.append(t)
        return s, t

    return _record(run, s, t, steps)


def sign_pair(pt: PointPL, scale: float | None = None) -> SignPair:
    """Coordinate signs with a zero band of EQ_TOL times max(1, scale).

    The scale defaults to the point's own infinity norm; pass an
    orbit-wide scale to keep the band consistent along a trajectory.
    """
    ref = _sup_norm(pt.s, pt.t) if scale is None else _float(scale, "scale")
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
    cap = _count(cap, "cap", 0)
    return _sign_coherent_indices(params.p, params.q, pt.s, pt.t, cap)[0]


def _renormalise(s, t):
    # divides each column of the arrays s, t with infinity norm past 1e100 by
    # it, in place, so its larger coordinate is exactly +-1; the PL map and its
    # linearization commute with positive dilations, the sign band is relative
    norm = _sup_norm(s, t)
    big = norm > 1e100
    if big.any():
        np.divide(s, norm, out=s, where=big)
        np.divide(t, norm, out=t, where=big)
    return s, t


def _sign_coherent_indices(p, q, s0, t0, cap: int) -> list:
    # first_sign_coherent_index per column of p, q, s0, t0 broadcast, renormalised
    p, q, s, t = _columns(p, q, s0, t0)
    pl_step = _pl_step(p, q, s.shape)

    def step(s, t, out_s, out_t):
        return _renormalise(*pl_step(s, t, out_s, out_t))

    last_bad = np.full(s.shape, -1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for first, ss, ts in chain([(0, s[None], t[None])], _blocks(step, s, t, cap)):
            band = _band(_sup_norm(ss, ts))
            bad = ~((ss > band) & (ts < -band))
            last = first + len(bad) - 1 - bad[::-1].argmax(axis=0)
            last_bad = np.where(bad.any(axis=0), last, last_bad)
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
