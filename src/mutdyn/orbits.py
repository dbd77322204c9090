"""Orbit iteration, growth classification and parameter scans."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product

import numpy as np

from .errors import DomainError, _count, _float, _pair
from .params import Params, Regime, classify_regime
from .rational import PointPos
from .tropical import (
    PointPL,
    _banded_signs,
    _blocks,
    _columns,
    _conserved,
    _cut,
    _lift,
    _ONE,
    _pl_step,
    _quad_coefs,
    _record,
    _record_orbit,
    _sup_norm,
)
from .floatops import _int_exponent, _power

__all__ = [
    "MAX_ORBIT_POINTS",
    "OrbitKind",
    "Orbit",
    "GrowthKind",
    "GrowthVerdict",
    "StartPolicy",
    "ScanCell",
    "ScanTable",
    "iterate_orbit",
    "growth_classification",
    "conserved_drift",
    "monotonic_angle_audit",
    "phi_drift_batch",
    "scan_grid",
]

# storage cap; longer horizons belong to the streaming helpers
MAX_ORBIT_POINTS = 10**6
# points growth classification needs from an orbit that did not truncate,
# and its threshold: exponential beyond a log1p(_DELTA) log slope
_MIN_POINTS = 16
_DELTA = 0.01
# angle change absorbed as rounding: the audit's rise, C7's plain-angle fall
_ANGLE_SLACK = 1e-12


class OrbitKind(Enum):
    RATIONAL = "rational"
    TROPICAL = "tropical"


def _log_radius(points):
    # -inf at a tropical orbit's origin hit
    with np.errstate(divide="ignore"):
        return np.log(_sup_norm(*points.T))


def _phi(params: Params, points):
    with np.errstate(over="ignore", invalid="ignore"):
        return _conserved(_quad_coefs(params.p, params.q), points[:, 0], points[:, 1])


def _polar(params: Params, points):
    S, T = points.T
    return np.where((S == 0.0) & (T == 0.0), math.nan, _lift(_cut(params.p, params.q), S, T)[0])


def _signs(points):
    return np.column_stack(_banded_signs(*points.T, _sup_norm(*points.T))).astype(np.int8)


@dataclass(frozen=True, eq=False)
class Orbit:
    """A stored trajectory; its per-point diagnostics derive from it.

    points holds the start and every computed iterate, shape (n+1, 2).
    The diagnostics are computed from points on first read and kept
    (exports compute them a slice at a time): log_radius is the log of
    the infinity norm per point.  For tropical orbits, phi holds the
    conserved quadratic, polar the lifted polar angle (nan at an origin
    hit) and signs the banded sign pairs; rational orbits carry None.

    A trajectory that leaves float range is truncated at the offending
    step: points keeps only the finite rows, so truncated_at, the 1-based
    step that failed, is len(points), and truncation_reason says why.
    """

    params: Params
    kind: OrbitKind
    points: np.ndarray
    requested_steps: int

    @property
    def start(self) -> tuple:
        return tuple(self.points[0].tolist())

    @property
    def steps(self) -> int:
        return len(self.points) - 1

    @property
    def truncated(self) -> bool:
        return self.steps < self.requested_steps

    @property
    def truncated_at(self) -> int | None:
        return len(self.points) if self.truncated else None

    @property
    def truncation_reason(self) -> str | None:
        return "left float range" if self.truncated else None

    @cached_property
    def log_radius(self) -> np.ndarray:
        return _log_radius(self.points)

    @cached_property
    def phi(self) -> np.ndarray | None:
        return _phi(self.params, self.points) if self.kind is OrbitKind.TROPICAL else None

    @cached_property
    def polar(self) -> np.ndarray | None:
        return _polar(self.params, self.points) if self.kind is OrbitKind.TROPICAL else None

    @cached_property
    def signs(self) -> np.ndarray | None:
        return _signs(self.points) if self.kind is OrbitKind.TROPICAL else None


class GrowthKind(Enum):
    EXPONENTIAL = "exponential"
    LINEAR = "linear"
    BOUNDED_LIKE = "bounded-like"


@dataclass(frozen=True)
class GrowthVerdict:
    """Outcome of tail-growth classification.

    Exactly one payload field is populated: ratio (> 1) for
    exponential growth, rate (> 0) for linear growth, max_log_radius
    for bounded-like.  Bounded-like is not a boundedness proof; it
    only says nothing faster was detected at this horizon.
    """

    kind: GrowthKind
    ratio: float | None = None
    rate: float | None = None
    max_log_radius: float | None = None

    def __post_init__(self):
        if self.kind is GrowthKind.EXPONENTIAL:
            ok = self.ratio is not None and self.ratio > 1.0
        elif self.kind is GrowthKind.LINEAR:
            ok = self.rate is not None and self.rate > 0.0
        else:
            ok = self.max_log_radius is not None
        if not ok:
            raise DomainError(f"inconsistent growth verdict {self!r}")


def _iterate_rational(params: Params, x: float, y: float, steps: int):
    # the birational step's runs from _record, with fpow's branch for p
    # and q chosen once for the whole orbit: a step divides a sum of at
    # least 1 by a positive float, so a coordinate leaves (0, inf) only
    # for inf or nan, and from there the pair reaches nan and stays
    pow_p, pow_q = _power(params.p), _power(params.q)

    def run(x, y, n, xs, ys):
        for _ in range(n):
            x = (1.0 + pow_q(y)) / x
            y = (1.0 + pow_p(x)) / y
            xs.append(x)
            ys.append(y)
        return x, y

    return _record(run, x, y, steps)


def _column_power(expo):
    # fpow on arrays for a column of exponents that share _power's
    # branch: its product for an integer exponent, which takes arrays as
    # it is, and for any other the libm pow that np.float_power calls
    # (np.power and ** on arrays may run SIMD loops that differ from
    # libm in the last bits)
    if _int_exponent(expo[0]) is None:
        return lambda base: np.float_power(base, expo)
    return _power(float(expo[0]))


def _rational_step(p, q):
    # _iterate_rational's step on columns for _blocks, for exponent
    # columns p and q that each share one branch of _power.  Every power
    # is a fresh array, so x and y are read before the rows that may be
    # them are written; callers silence the overflow and the nan of an
    # orbit that left float range
    pow_p, pow_q = _column_power(p), _column_power(q)

    def step(x, y, out_x, out_y):
        num = pow_q(y)
        num += _ONE
        x = np.divide(num, x, out=out_x)
        num = pow_p(x)
        num += _ONE
        return x, np.divide(num, y, out=out_y)

    return step


def _horizon(steps) -> int:
    # iterate_orbit's check of a horizon: a step count it can store
    steps = _count(steps, "steps", 0)
    if steps + 1 > MAX_ORBIT_POINTS:
        raise DomainError(
            f"horizon stores {steps + 1} points, over the cap {MAX_ORBIT_POINTS}; "
            "use phi_drift_batch or a manual loop for long horizons"
        )
    return steps


def _map_of(kind: OrbitKind):
    # a kind's point type, recorder of one orbit's runs and scan producer
    if kind is OrbitKind.RATIONAL:
        return PointPos, _iterate_rational, _rational_cells
    if kind is OrbitKind.TROPICAL:
        return PointPL, _record_orbit, _tropical_cells
    raise DomainError(f"unknown orbit kind {kind!r}")


def iterate_orbit(params: Params, kind: OrbitKind, start, steps: int) -> Orbit:
    """Iterate the chosen map from start, recording every point.

    start may be the matching point type or a plain pair.  An iterate
    leaving float range truncates the orbit (see Orbit); horizons that
    would store more than MAX_ORBIT_POINTS are refused, the streaming
    helpers exist for those.
    """
    steps = _horizon(steps)
    point, record, _ = _map_of(kind)
    pt = start if isinstance(start, point) else point(*_pair(start, "start"))
    a, b = pt.as_tuple()
    # filled a run at a time; a truncated orbit keeps a copy of its rows
    pts = np.empty((steps + 1, 2))
    pts[0], end = (a, b), 1
    for first, xs, ys in record(params, a, b, steps):
        end = first + len(xs)
        pts[first:end].T[:] = xs, ys
    if end <= steps:
        pts = pts[:end].copy()
    return Orbit(params=params, kind=kind, points=pts, requested_steps=steps)


def growth_classification(orbit: Orbit) -> GrowthVerdict:
    """Classify tail growth of the radius over the final half of an orbit.

    Over n steps let env be the running maximum of the log radius (-745
    at a radius of 0), h = (n + 1) // 2 and m = (h + n) // 2.
    Exponential when the last quarter's rise sigma = (env[n] - env[m])
    / (n - m) beats log(1.01) and is at least 0.9 of the third
    quarter's, a steady rise of the envelope; the ratio is exp(sigma).
    Otherwise linear when the affine fit of the radius over rows h..n
    climbs by more than a quarter of max(1, its largest radius) there;
    the rate is that slope.  Otherwise bounded-like, with the whole
    orbit's maximum log-radius attached.

    An orbit truncated for leaving float range already demonstrated
    exponential escape; it is classified directly from its largest
    one-step log jump, with no length requirement.  Everything else
    needs at least 16 points.
    """
    radius = _sup_norm(*orbit.points.T)[:, None]
    blocks = [(1, radius[1:])] if orbit.steps else []
    _, *reduced = _tail_pass(radius[0], blocks, orbit.steps)
    return _growth_verdict(orbit.steps, orbit.truncated, *(float(v[0]) for v in reduced))


def _tail_pass(r0, blocks, steps: int):
    # growth_classification's reductions per column, from the start
    # radii r0 and the (first step, radii) blocks of rows 1..steps; a
    # column's rows end before its first radius that is not finite.
    # Returned: finite to the end, the largest log radius and one-step
    # log jump (-inf for none), env at rows h and m, and over rows
    # h..steps the fit slope, summed from pre-scaled terms in row order
    # (so no partial sum overflows and the blocking leaves its bits
    # alone), and the largest radius.  Stops once no column is finite
    h = (steps + 1) // 2
    marks = (h, (h + steps) // 2)
    dev = np.arange(h, steps + 1) - (h + steps) / 2
    # a horizon under _MIN_POINTS points never reads the fit
    weights = (dev / max(float(dev @ dev), 1.0))[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        prev = max_lr = np.log(r0)
        env = [np.full_like(r0, math.nan) for _ in marks]
        jump = np.full_like(r0, -math.inf)
        slope, top = np.zeros_like(r0), np.zeros_like(r0)
        alive = np.ones(r0.shape, dtype=bool)
        for first, radius in blocks:
            end = first + len(radius)
            lr = np.log(radius)
            jumps = np.diff(lr, axis=0, prepend=prev[None])
            prev, peak = lr[-1], lr.max(axis=0)
            # only a block with a radius not finite, or after a column left,
            # masks rows; env is the max over the rows up to its mark row
            if not (alive.all() and peak.max() < math.inf):
                kept = np.logical_and.accumulate(np.isfinite(radius), axis=0) & alive
                lr, jumps = (np.where(kept, v, -math.inf) for v in (lr, jumps))
                peak = lr.max(axis=0)
                alive &= kept[-1]
            for k, row in enumerate(marks):
                if first <= row < end:
                    env[k] = np.maximum(lr[: row + 1 - first].max(axis=0), max_lr)
            max_lr = np.maximum(peak, max_lr)
            jump = np.maximum(jump, jumps.max(axis=0))
            if end > h:
                lo = max(first, h)
                tail = radius[lo - first :]
                terms = weights[lo - h : end - h] * tail
                slope = np.add.accumulate(np.concatenate([slope[None], terms]), axis=0)[-1]
                top = np.maximum(top, tail.max(axis=0))
            if not alive.any():
                break
    return alive, max_lr, jump, *env, slope, top


def _growth_verdict(steps, truncated, max_lr, jump, env_h, env_m, slope, top) -> GrowthVerdict:
    # growth_classification's rule on one column of _tail_pass
    if truncated:
        jump = 700.0 if jump == -math.inf else jump
        return GrowthVerdict(GrowthKind.EXPONENTIAL, ratio=math.exp(min(max(jump, 1.0), 700.0)))
    if steps + 1 < _MIN_POINTS:
        raise DomainError(
            f"growth classification needs at least {_MIN_POINTS} points, got {steps + 1}"
        )
    h = (steps + 1) // 2
    m = (h + steps) // 2
    # an orbit through the exact origin has log radius -inf there; any
    # finite stand-in below every positive radius keeps the rises finite
    env_h, env_m, env_n = (max(v, -745.0) for v in (env_h, env_m, max_lr))
    sigma = (env_n - env_m) / (steps - m)
    if sigma > math.log1p(_DELTA) and sigma >= 0.9 * (env_m - env_h) / (m - h):
        return GrowthVerdict(GrowthKind.EXPONENTIAL, ratio=math.exp(sigma))
    if slope > 0.0 and slope * (steps - h) > 0.25 * max(1.0, top):
        return GrowthVerdict(GrowthKind.LINEAR, rate=slope)
    return GrowthVerdict(GrowthKind.BOUNDED_LIKE, max_log_radius=max_lr)


def _rational_verdicts(p, q, x, y, steps: int) -> list:
    # growth_classification(iterate_orbit(...)) of the birational map
    # for the columns of exponents p, q and starts x, y (1-D arrays),
    # storing no orbit.  Columns are grouped by their pair of power
    # branches, so that a step makes one power call per coordinate.  A
    # coordinate leaves (0, inf) only for inf or nan (_iterate_rational),
    # so an orbit stays in range while its radius is finite
    groups = {}
    for j, key in enumerate(zip(map(_int_exponent, p.tolist()), map(_int_exponent, q.tolist()))):
        groups.setdefault(key, []).append(j)
    verdicts = [None] * len(p)
    for idx in groups.values():
        step = _rational_step(p[idx], q[idx])
        blocks = ((i, _sup_norm(a, b)) for i, a, b in _blocks(step, x[idx], y[idx], steps))
        alive, *reduced = _tail_pass(_sup_norm(x[idx], y[idx]), blocks, steps)
        for j, dead, *column in zip(idx, (~alive).tolist(), *(v.tolist() for v in reduced)):
            verdicts[j] = _growth_verdict(steps, dead, *column)
    return verdicts


def conserved_drift(orbit: Orbit) -> float:
    """Maximum relative wander of the conserved quadratic along an orbit.

    Tropical orbits only.  Steps where the quadratic, or its distance
    from the reference, leaves float range are skipped: a 64-bit
    evaluation carries no information there.  The reference is the
    start value, the scale max(1, |reference|).  The figure is the one
    phi_drift_batch takes, so the two agree bit for bit.
    """
    if orbit.kind is not OrbitKind.TROPICAL:
        raise DomainError("the conserved quadratic belongs to tropical orbits")
    ph = orbit.phi
    base = float(ph[0])
    if not math.isfinite(base):
        raise DomainError("conserved quantity already out of float range at the start")
    with np.errstate(over="ignore"):
        return float(np.max(_wander(ph, base))) / max(1.0, abs(base))


def _wander(value, base):
    # |value - base| of the conserved quadratic from its start value, 0 where
    # not finite.  Callers divide the largest by max(1, |base|), which is the
    # largest of the divided wanders bit for bit: that division is monotone
    d = np.abs(value - base)
    return np.where(np.isfinite(d), d, 0.0)


def monotonic_angle_audit(orbit: Orbit):
    """Index of the first lifted-angle increase along a tropical orbit.

    None when the angle never increases beyond an absolute slack of
    1e-12, which absorbs rounding once the angle has converged; a genuine
    plateau is indistinguishable from strict decrease at that point in
    64-bit arithmetic.  Escape regimes only (pq >= 4), and the orbit
    must avoid the origin.  A None verdict is expected when the start's
    conserved value is non-negative; orbits with a negative value stay
    in the open fourth quadrant and climb toward the expanding
    invariant direction, so they are flagged here, which is a finding
    about the orbit, not a numerical artifact.  For those the plain
    atan2 angle is the monotone one: it never falls.
    """
    if orbit.kind is not OrbitKind.TROPICAL:
        raise DomainError("angle audit applies to tropical orbits")
    if classify_regime(orbit.params) is Regime.SUBCRITICAL:
        raise DomainError("angle audit applies in the escape regimes, pq >= 4")
    th = orbit.polar
    if np.isnan(th).any():
        raise DomainError("orbit passes through the origin, angle undefined there")
    return _first_rises([(0, th[:, None])])[0]


def _first_rises(blocks) -> list:
    # monotonic_angle_audit's rule on each column of an angle array handed
    # over in (first row, rows) blocks from row 0: the first row whose angle
    # beats the row before, carried across blocks, by more than
    # _ANGLE_SLACK, or None where no row does
    found, prev = -1, math.inf
    for first, theta in blocks:
        rose = np.diff(theta, axis=0, prepend=prev) > _ANGLE_SLACK
        found = np.where((found < 0) & rose.any(axis=0), first + rose.argmax(axis=0), found)
        prev = theta[-1:]
    return [int(i) if i >= 0 else None for i in found]


def phi_drift_batch(p, q, s0, t0, steps: int, scale_cap: float | None = None):
    """Conserved-quadratic drift for many tropical orbits at once.

    All four inputs broadcast together; the return holds the per-orbit
    maximum relative drift over the horizon.  Nothing is stored per
    step, so this is the path for long horizons.  With scale_cap the
    drift is sampled only while an orbit's infinity norm stays at or
    below the cap: past it, cancellation in the growing regimes visibly
    swamps what the quadratic can measure in 64 bits (see the README
    notes), so capped sampling is the honest measurement window.
    Orbits are dropped from sampling once any value involved stops
    being finite; a start whose value is already out of float range
    raises DomainError, as in conserved_drift, and so does a nan cap or
    one below 0.
    """
    return _phi_drift_pass(p, q, s0, t0, steps, scale_cap)[0]


def _phi_drift_pass(p, q, s0, t0, steps: int, cap):
    # phi_drift_batch's drift windowed by the scale cap (None for none) and
    # its raw drift, in one pass over the orbits.  A point not finite keeps
    # one coordinate so (_record_orbit), and adds no drift after, so a block
    # ending with such columns restarts without them
    steps = _count(steps, "steps", 0)
    p, q, s, t = _columns(p, q, s0, t0)
    if not (np.isfinite(p).all() and (p > 0.0).all() and np.isfinite(q).all() and (q > 0.0).all()):
        raise DomainError("exponents must be finite and positive")
    if not (np.isfinite(s).all() and np.isfinite(t).all()):
        raise DomainError("starts must be finite")
    # norm <= cap never holds for a nan cap or one below 0, so either
    # would sample nothing and read as zero drift
    cap = None if cap is None else _float(cap, "scale_cap")
    if cap is not None and not cap >= 0.0:
        raise DomainError(f"scale_cap must be >= 0, got {cap!r}")
    shape = s.shape
    p, q, s, t = (v.ravel() for v in (p, q, s, t))
    with np.errstate(over="ignore", invalid="ignore"):
        base = _conserved(_quad_coefs(p, q), s, t)
        # a start whose value is not finite would read as zero drift
        if not np.isfinite(base).all():
            raise DomainError("conserved quantity already out of float range at the start")
        denom = np.maximum(1.0, np.abs(base))
        # per column the largest windowed and raw wander, over denom at the end
        drift = np.zeros((2, base.size))
        cols, done = np.arange(base.size), 0
        while done < steps and cols.size:
            coefs, wander = _quad_coefs(p, q), drift[:, cols]
            window, raw = wander
            for first, bs, bt in _blocks(_pl_step(p, q, s.shape), s, t, steps - done):
                d = _wander(_conserved(coefs, bs, bt), base)
                np.maximum(raw, d.max(axis=0), out=raw)
                if cap is not None:
                    np.maximum(window, np.where(_sup_norm(bs, bt) <= cap, d, 0.0).max(axis=0), out=window)
                live = np.isfinite(bs[-1]) & np.isfinite(bt[-1])
                if not live.all():
                    break
            drift[:, cols] = wander
            done += first + len(bs) - 1
            p, q, s, t, base, cols = (v[live] for v in (p, q, bs[-1], bt[-1], base, cols))
    window, raw = (d.reshape(shape) for d in drift / denom)
    return raw if cap is None else window, raw


@dataclass(frozen=True)
class StartPolicy:
    """Start selection for scan cells.

    Either an explicit tuple of (coordinate pair) starts shared by all
    cells, or a seed for per-cell reproducible draws of ``count``
    starts; ``count`` belongs to the draws and stays 1 with points.
    Seeded draws land in [0.5, 2]^2 for the rational map and in
    [-2, 2]^2 away from the origin for the tropical one.
    """

    points: tuple | None = None
    seed: int | None = None
    count: int = 1

    def __post_init__(self):
        if (self.points is None) == (self.seed is None):
            raise DomainError("exactly one of points or seed must be given")
        if self.points is not None:
            # converted only: scan_grid checks each start as it builds its point
            try:
                pts = tuple((float(a), float(b)) for a, b in self.points)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DomainError(f"points must be pairs of reals: {exc}") from None
            if not pts:
                raise DomainError("points must be non-empty")
            object.__setattr__(self, "points", pts)
        else:
            object.__setattr__(self, "seed", _count(self.seed, "seed", 0))
        object.__setattr__(self, "count", _count(self.count, "count", 1))
        if self.points is not None and self.count != 1:
            raise DomainError(f"count needs a seed, got count={self.count} with points")

    def starts_for(self, kind: OrbitKind, i: int, j: int):
        if self.points is not None:
            return self.points
        lo, hi, floor = (0.5, 2.0, 0.0) if kind is OrbitKind.RATIONAL else (-2.0, 2.0, 0.1)
        return tuple(_draw_starts(np.random.default_rng([self.seed, i, j]), self.count, lo, hi, floor))


def _draw_starts(rng, n: int, lo: float, hi: float, floor: float) -> list:
    # n starts in [lo, hi)^2, a pair under floor in both sizes drawn again: a
    # batch at a time, the stream of drawing a pair at a time up to the n-th
    starts = []
    while len(starts) < n:
        pairs = rng.uniform(lo, hi, size=(n - len(starts), 2)).tolist()
        starts += [(s, t) for s, t in pairs if max(abs(s), abs(t)) >= floor]
    return starts


@dataclass(frozen=True)
class ScanCell:
    p: float
    q: float
    verdict: GrowthVerdict


@dataclass(frozen=True)
class ScanTable:
    """Row-major grid of growth verdicts over a parameter rectangle."""

    p_values: tuple
    q_values: tuple
    kind: OrbitKind
    steps: int
    cells: tuple

    def cell(self, i: int, j: int) -> ScanCell:
        return self.cells[i * len(self.q_values) + j]


_SEVERITY = {
    GrowthKind.BOUNDED_LIKE: 0,
    GrowthKind.LINEAR: 1,
    GrowthKind.EXPONENTIAL: 2,
}


def _rational_cells(columns, steps: int):
    # scan_grid's (cell, verdict) per column of the birational map, from
    # one batched pass over every column
    cell_of, *values = zip(*((c, prm.p, prm.q, pt.x, pt.y) for c, prm, pt in columns))
    return zip(cell_of, _rational_verdicts(*map(np.array, values), steps))


def _tropical_cells(columns, steps: int):
    # scan_grid's (cell, verdict) per column of the piecewise-linear map,
    # one orbit per column; no later start outranks an exponential one,
    # so from _MIN_POINTS points on the rest of its cell is skipped (below
    # that a later start may still raise)
    done = None
    for cell, params, start in columns:
        if cell != done:
            verdict = growth_classification(iterate_orbit(params, OrbitKind.TROPICAL, start, steps))
            if verdict.kind is GrowthKind.EXPONENTIAL and steps + 1 >= _MIN_POINTS:
                done = cell
            yield cell, verdict


def scan_grid(
    p_range: tuple,
    q_range: tuple,
    resolution: int,
    kind: OrbitKind,
    steps: int,
    start_policy: StartPolicy | None = None,
) -> ScanTable:
    """Growth verdicts over a uniform parameter grid.

    Each cell iterates the requested map from its starts and keeps the
    most severe verdict (exponential over linear over bounded-like).
    Cells are visited row-major in p then q, deterministically.  The
    verdicts are growth_classification's of iterate_orbit's orbits, bit
    for bit: the birational map's orbits are stepped in one batched pass
    that keeps a few running reductions per orbit and stores none, and
    a piecewise-linear cell stops at its first exponential start, from
    16 points on.  Every input is checked before any orbit is stepped
    (the horizon, the kind, the range ends, the resolution, then each
    cell's exponents and starts in row-major order), so classification's
    "needs at least 16 points" comes last.
    """
    steps = _horizon(steps)
    point, _, evaluate = _map_of(kind)
    # the range ends are exponents too, checked before linspace turns an
    # infinite one into nan
    (lo_p, hi_p), (lo_q, hi_q) = _pair(p_range, "p_range"), _pair(q_range, "q_range")
    lo, hi = Params(lo_p, lo_q), Params(hi_p, hi_q)
    if not (lo.p <= hi.p and lo.q <= hi.q):
        raise DomainError(f"parameter ranges must be ordered, got {p_range!r}, {q_range!r}")
    resolution = _count(resolution, "resolution", 1)
    if start_policy is None:
        start_policy = StartPolicy(points=((1.0, 1.0),))
    p_values = tuple(float(v) for v in np.linspace(lo.p, hi.p, resolution))
    q_values = tuple(float(v) for v in np.linspace(lo.q, hi.q, resolution))
    # every start of every cell as one column, checked in row-major order
    columns = [
        (cell, params, point(*start))
        for cell, (p, q) in enumerate(product(p_values, q_values))
        for params in [Params(p, q)]
        for start in start_policy.starts_for(kind, *divmod(cell, resolution))
    ]
    # each cell keeps its first verdict of the most severe kind
    verdicts = [None] * resolution**2
    for cell, verdict in evaluate(columns, steps):
        best = verdicts[cell]
        if best is None or _SEVERITY[verdict.kind] > _SEVERITY[best.kind]:
            verdicts[cell] = verdict
    return ScanTable(
        p_values=p_values,
        q_values=q_values,
        kind=kind,
        steps=steps,
        cells=tuple(ScanCell(p, q, v) for (p, q), v in zip(product(p_values, q_values), verdicts)),
    )
