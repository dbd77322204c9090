"""Orbit iteration, growth classification and parameter scans."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DomainError
from .params import Params, Regime, classify_regime
from .rational import PointPos
from .tropical import (
    PointPL,
    _banded_signs,
    _columns,
    _conserved,
    _lift,
    _pl_step,
    _quad_coefs,
    _record_orbit,
    _record_orbits,
    _sup_norm,
)
from .floatops import _power

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


class OrbitKind(Enum):
    RATIONAL = "rational"
    TROPICAL = "tropical"


@dataclass(frozen=True, eq=False)
class Orbit:
    """A stored trajectory; its per-point diagnostics derive from it.

    points holds the start and every computed iterate, shape (n+1, 2).
    The diagnostics are computed from points on first read and kept:
    log_radius is the log of the infinity norm per point.  For
    tropical orbits, phi holds the conserved quadratic, polar the
    lifted polar angle (nan at an origin hit) and signs the banded
    sign pairs; rational orbits carry None for those three.

    A trajectory that leaves float range is truncated at the offending
    step: points keeps only finite entries, truncated_at records the
    1-based step that failed and truncation_reason says why.
    """

    params: Params
    kind: OrbitKind
    points: np.ndarray
    requested_steps: int
    truncated_at: int | None

    @property
    def start(self) -> tuple:
        return tuple(self.points[0].tolist())

    @property
    def steps(self) -> int:
        return len(self.points) - 1

    @property
    def truncated(self) -> bool:
        return self.truncated_at is not None

    @property
    def truncation_reason(self) -> str | None:
        return None if self.truncated_at is None else "left float range"

    @cached_property
    def log_radius(self) -> np.ndarray:
        # a tropical orbit through the origin has log radius -inf there
        with np.errstate(divide="ignore"):
            return np.log(_sup_norm(*self.points.T))

    @cached_property
    def phi(self) -> np.ndarray | None:
        if self.kind is not OrbitKind.TROPICAL:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            coefs = _quad_coefs(self.params.p, self.params.q)
            return _conserved(coefs, self.points[:, 0], self.points[:, 1])

    @cached_property
    def polar(self) -> np.ndarray | None:
        if self.kind is not OrbitKind.TROPICAL:
            return None
        S, T = self.points.T
        return np.where((S == 0.0) & (T == 0.0), math.nan, _lift(self.params, S, T)[0])

    @cached_property
    def signs(self) -> np.ndarray | None:
        if self.kind is not OrbitKind.TROPICAL:
            return None
        S, T = self.points.T
        signs = _banded_signs(S, T, _sup_norm(S, T))
        return np.column_stack(signs).astype(np.int8)


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


def _iterate_rational(params: Params, start: PointPos, steps: int):
    # fpow's branch for p and q is chosen once for the whole orbit
    pow_p, pow_q = _power(params.p), _power(params.q)
    x, y = start.x, start.y
    xs = [x]
    ys = [y]
    trunc = None
    for i in range(1, steps + 1):
        x = (1.0 + pow_q(y)) / x
        y = (1.0 + pow_p(x)) / y
        if not (math.isfinite(x) and math.isfinite(y) and x > 0.0 and y > 0.0):
            trunc = i
            break
        xs.append(x)
        ys.append(y)
    return xs, ys, trunc


def iterate_orbit(params: Params, kind: OrbitKind, start, steps: int) -> Orbit:
    """Iterate the chosen map from start, recording every point.

    start may be the matching point type or a plain pair.  An iterate
    leaving float range truncates the orbit (see Orbit); horizons that
    would store more than MAX_ORBIT_POINTS are refused, the streaming
    helpers exist for those.
    """
    steps = int(steps)
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    if steps + 1 > MAX_ORBIT_POINTS:
        raise DomainError(
            f"horizon stores {steps + 1} points, over the cap {MAX_ORBIT_POINTS}; "
            "use phi_drift_batch or a manual loop for long horizons"
        )
    if kind is OrbitKind.RATIONAL:
        pt = start if isinstance(start, PointPos) else PointPos(*start)
        xs, ys, trunc = _iterate_rational(params, pt, steps)
    elif kind is OrbitKind.TROPICAL:
        pt = start if isinstance(start, PointPL) else PointPL(*start)
        xs, ys, trunc = _record_orbit(params, pt.s, pt.t, steps)
    else:
        raise DomainError(f"unknown orbit kind {kind!r}")
    pts = np.column_stack([np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)])
    return Orbit(params=params, kind=kind, points=pts, requested_steps=steps, truncated_at=trunc)


def _tropical_orbits(params: Params, s0, t0, steps: int) -> list:
    # iterate_orbit's tropical orbits for many starts, recorded in one
    # array pass: one Orbit per start, with the scalar recorder's bits
    ss, ts, truncs = _record_orbits(params.p, params.q, s0, t0, steps)
    orbits = []
    for j, trunc in enumerate(truncs):
        end = steps + 1 if trunc is None else trunc
        pts = np.column_stack([ss[:end, j], ts[:end, j]])
        orbits.append(
            Orbit(params, OrbitKind.TROPICAL, pts, requested_steps=steps, truncated_at=trunc)
        )
    return orbits


def growth_classification(orbit: Orbit, delta: float = 0.01) -> GrowthVerdict:
    """Classify tail growth of the radius over the final half of an orbit.

    Exponential when the least-squares slope of log-radius against
    step index beats log(1 + delta); the ratio reported is exp(slope).
    Otherwise linear when the affine fit of the radius itself climbs
    by more than a quarter of the window's radius scale over the
    window; the rate is that slope.  Otherwise bounded-like, with the
    whole orbit's maximum log-radius attached.

    An orbit truncated for leaving float range already demonstrated
    exponential escape; it is classified directly from its largest
    one-step log jump, with no length requirement.  Everything else
    needs at least 16 points.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise DomainError(f"delta must be finite and positive, got {delta!r}")
    if orbit.truncated:
        finite_lr = orbit.log_radius[np.isfinite(orbit.log_radius)]
        jump = float(np.max(np.diff(finite_lr))) if len(finite_lr) >= 2 else 700.0
        return GrowthVerdict(GrowthKind.EXPONENTIAL, ratio=math.exp(min(max(jump, 1.0), 700.0)))
    n = orbit.steps
    if n + 1 < 16:
        raise DomainError(f"growth classification needs at least 16 points, got {n + 1}")
    half = (n + 1) // 2
    idx = np.arange(half, n + 1, dtype=float)
    lr = orbit.log_radius[half:]
    # an orbit through the exact origin has log radius -inf there; any
    # finite stand-in far below the data keeps the fit meaningful
    lr = np.where(np.isfinite(lr), lr, -745.0)
    sigma = float(np.polyfit(idx, lr, 1)[0])
    if sigma > math.log1p(delta):
        return GrowthVerdict(GrowthKind.EXPONENTIAL, ratio=math.exp(sigma))
    radius = _sup_norm(*orbit.points[half:].T)
    rho = float(np.polyfit(idx, radius, 1)[0])
    if rho > 0.0 and rho * (n - half) > 0.25 * max(1.0, float(np.max(radius))):
        return GrowthVerdict(GrowthKind.LINEAR, rate=rho)
    max_lr = float(np.max(orbit.log_radius))
    return GrowthVerdict(GrowthKind.BOUNDED_LIKE, max_log_radius=max_lr)


def conserved_drift(orbit: Orbit) -> float:
    """Maximum relative wander of the conserved quadratic along an orbit.

    Tropical orbits only.  Steps where the quadratic, or its distance
    from the reference, leaves float range are skipped: a 64-bit
    evaluation carries no information there.  The reference is the
    start value, the scale max(1, |reference|).  Each step's figure is
    the one phi_drift_batch takes, so the two agree bit for bit.
    """
    if orbit.kind is not OrbitKind.TROPICAL:
        raise DomainError("the conserved quadratic belongs to tropical orbits")
    ph = orbit.phi
    base = float(ph[0])
    if not math.isfinite(base):
        raise DomainError("conserved quantity already out of float range at the start")
    with np.errstate(over="ignore"):
        return float(np.max(_drift(ph, base, max(1.0, abs(base)))))


def _drift(value, base, denom):
    # the relative wander |value - base| / denom of the conserved
    # quadratic from its start value base, denom = max(1, |base|); a
    # value that is not finite, or a wander that overflows, adds nothing
    d = np.abs(value - base) / denom
    return np.where(np.isfinite(d), d, 0.0)


def monotonic_angle_audit(orbit: Orbit, slack: float = 1e-12):
    """Index of the first lifted-angle increase along a tropical orbit.

    None when the angle never increases beyond the absolute slack,
    which absorbs rounding once the angle has converged; a genuine
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
    bad = np.nonzero(np.diff(th) > slack)[0]
    return int(bad[0] + 1) if len(bad) else None


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
    raises DomainError, as in conserved_drift, and so does a nan cap.
    """
    return _phi_drift_pass(p, q, s0, t0, steps, (scale_cap,))[0]


def _phi_drift_pass(p, q, s0, t0, steps: int, scale_caps: tuple):
    # phi_drift_batch for several scale caps (None for none) in one
    # pass over the orbits; one drift array per cap, in order
    steps = int(steps)
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    p, q, s, t = _columns(p, q, s0, t0)
    if not (np.isfinite(p).all() and (p > 0.0).all() and np.isfinite(q).all() and (q > 0.0).all()):
        raise DomainError("exponents must be finite and positive")
    if not (np.isfinite(s).all() and np.isfinite(t).all()):
        raise DomainError("starts must be finite")
    # norm <= nan never holds, so a nan cap would sample nothing and read as zero drift
    if any(cap is not None and math.isnan(cap) for cap in scale_caps):
        raise DomainError("scale_cap must not be nan")
    capped = any(cap is not None for cap in scale_caps)
    with np.errstate(over="ignore", invalid="ignore"):
        coefs = _quad_coefs(p, q)
        base = _conserved(coefs, s, t)
        # a start whose value is not finite would read as zero drift
        if not np.isfinite(base).all():
            raise DomainError("conserved quantity already out of float range at the start")
        denom = np.maximum(1.0, np.abs(base))
        drifts = [np.zeros_like(base) for _ in scale_caps]
        for _ in range(steps):
            s, t = _pl_step(p, q, s, t)
            d = _drift(_conserved(coefs, s, t), base, denom)
            if capped:
                norm = _sup_norm(s, t)
            for i, cap in enumerate(scale_caps):
                sample = d if cap is None else np.where(norm <= cap, d, 0.0)
                drifts[i] = np.maximum(drifts[i], sample)
    return drifts


@dataclass(frozen=True)
class StartPolicy:
    """Start selection for scan cells.

    Either an explicit tuple of (coordinate pair) starts shared by all
    cells, or a seed for per-cell reproducible draws of ``count``
    starts.  Seeded draws land in [0.5, 2]^2 for the rational map and
    in [-2, 2]^2 away from the origin for the tropical one.
    """

    points: tuple | None = None
    seed: int | None = None
    count: int = 1

    def __post_init__(self):
        if (self.points is None) == (self.seed is None):
            raise DomainError("exactly one of points or seed must be given")
        if self.points is not None:
            pts = tuple((float(a), float(b)) for a, b in self.points)
            if not pts:
                raise DomainError("points must be non-empty")
            object.__setattr__(self, "points", pts)
        if self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count}")

    def starts_for(self, kind: OrbitKind, i: int, j: int):
        if self.points is not None:
            return self.points
        rng = np.random.default_rng([int(self.seed), i, j])
        out = []
        while len(out) < self.count:
            if kind is OrbitKind.RATIONAL:
                a, b = rng.uniform(0.5, 2.0, size=2)
                out.append((float(a), float(b)))
            else:
                a, b = rng.uniform(-2.0, 2.0, size=2)
                if max(abs(a), abs(b)) >= 0.1:
                    out.append((float(a), float(b)))
        return tuple(out)


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
    Cells are visited row-major in p then q, deterministically.
    """
    resolution = int(resolution)
    if resolution < 1:
        raise DomainError(f"resolution must be >= 1, got {resolution}")
    lo_p, hi_p = (float(p_range[0]), float(p_range[1]))
    lo_q, hi_q = (float(q_range[0]), float(q_range[1]))
    if not (0.0 < lo_p <= hi_p and 0.0 < lo_q <= hi_q):
        raise DomainError("parameter ranges must be positive and ordered")
    if start_policy is None:
        start_policy = StartPolicy(points=((1.0, 1.0),))
    p_values = tuple(float(v) for v in np.linspace(lo_p, hi_p, resolution))
    q_values = tuple(float(v) for v in np.linspace(lo_q, hi_q, resolution))
    cells = []
    for i, p in enumerate(p_values):
        for j, q in enumerate(q_values):
            params = Params(p, q)
            best = None
            for start in start_policy.starts_for(kind, i, j):
                orbit = iterate_orbit(params, kind, start, steps)
                verdict = growth_classification(orbit)
                if best is None or _SEVERITY[verdict.kind] > _SEVERITY[best.kind]:
                    best = verdict
            cells.append(ScanCell(p=p, q=q, verdict=best))
    return ScanTable(
        p_values=p_values,
        q_values=q_values,
        kind=kind,
        steps=int(steps),
        cells=tuple(cells),
    )
