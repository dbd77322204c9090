"""Orbit storage, growth verdicts, drift and angle audits, scans."""
import math
import warnings

import numpy as np
import pytest

from mutdyn.errors import DomainError, RangeError
from mutdyn.orbits import (
    _phi_drift_pass,
    _tropical_orbits,
    MAX_ORBIT_POINTS,
    GrowthKind,
    GrowthVerdict,
    Orbit,
    OrbitKind,
    StartPolicy,
    conserved_drift,
    growth_classification,
    iterate_orbit,
    monotonic_angle_audit,
    phi_drift_batch,
    scan_grid,
)
from mutdyn.params import Params
from mutdyn.rational import PointPos, mu_x
from mutdyn.tropical import PointPL


def test_rational_five_cycle_points_exact():
    orbit = iterate_orbit(Params(1, 1), OrbitKind.RATIONAL, (1, 1), 5)
    expected = np.array([[1, 1], [2, 3], [2, 1], [1, 2], [3, 2], [1, 1]], dtype=float)
    assert np.array_equal(orbit.points, expected)
    assert orbit.steps == 5
    assert not orbit.truncated
    assert orbit.phi is None and orbit.polar is None and orbit.signs is None


def test_tropical_five_cycle_points_exact():
    orbit = iterate_orbit(Params(1, 1), OrbitKind.TROPICAL, (1, 0), 5)
    expected = np.array([[1, 0], [0, -1], [0, 1], [1, -1], [-1, 0], [1, 0]], dtype=float)
    assert np.array_equal(orbit.points, expected)
    assert np.array_equal(orbit.phi, np.ones(6))
    assert len(orbit.polar) == 6 and len(orbit.signs) == 6
    # a diagnostic is computed on first read and kept
    assert orbit.phi is orbit.phi


def test_start_accepts_point_or_pair():
    params = Params(1.3, 0.8)
    a = iterate_orbit(params, OrbitKind.RATIONAL, PointPos(1.2, 0.7), 20)
    b = iterate_orbit(params, OrbitKind.RATIONAL, (1.2, 0.7), 20)
    assert np.array_equal(a.points, b.points)
    c = iterate_orbit(params, OrbitKind.TROPICAL, PointPL(-0.4, 1.1), 20)
    d = iterate_orbit(params, OrbitKind.TROPICAL, (-0.4, 1.1), 20)
    assert np.array_equal(c.points, d.points)
    # the start derives from the points and keeps the sign of a zero
    e = iterate_orbit(params, OrbitKind.TROPICAL, (-0.0, 1.0), 20)
    assert e.start == (-0.0, 1.0)
    assert math.copysign(1.0, e.start[0]) == -1.0


def test_step_validation():
    params = Params(1, 1)
    with pytest.raises(DomainError):
        iterate_orbit(params, OrbitKind.RATIONAL, (1, 1), -1)
    with pytest.raises(DomainError):
        iterate_orbit(params, OrbitKind.RATIONAL, (1, 1), MAX_ORBIT_POINTS)
    zero = iterate_orbit(params, OrbitKind.TROPICAL, (1, 0), 0)
    assert zero.points.shape == (1, 2) and zero.steps == 0


def test_truncation_on_float_range_exit():
    orbit = iterate_orbit(Params(4, 4), OrbitKind.RATIONAL, (1e80, 1e80), 50)
    assert orbit.truncated
    assert orbit.truncated_at == 1
    assert orbit.truncation_reason == "left float range"
    assert orbit.points.shape == (1, 2)
    assert orbit.steps == 0
    assert orbit.requested_steps == 50


def test_batched_tropical_orbits_equal_iterate_orbit_bit_for_bit():
    # one array pass over many starts gives each start's iterate_orbit
    # orbit: points (signed zeros included), truncation and horizon
    rng = np.random.default_rng(78)
    starts = [(1e300, -2e299), (2e299, 1e300), (-1e300, 5e299), (0.0, 0.0), (-0.0, 0.0)]
    starts += [(0.0, -0.0), (-0.0, -0.0), (1.0, -0.0)]
    starts += [tuple(float(v) for v in rng.uniform(-3.0, 3.0, 2)) for _ in range(40)]
    s0, t0 = (np.array(v) for v in zip(*starts))
    for params in (Params(3.0, 3.0), Params(1.0, 9.0), Params(1.0, 1.0), Params(0.7, 2.1)):
        for steps in (0, 1, 120):
            batched = _tropical_orbits(params, s0, t0, steps)
            assert len(batched) == len(starts)
            for start, got in zip(starts, batched):
                want = iterate_orbit(params, OrbitKind.TROPICAL, start, steps)
                assert got.points.tobytes() == want.points.tobytes()
                assert got.points.shape == want.points.shape
                assert got.truncated_at == want.truncated_at
                assert got.requested_steps == want.requested_steps == steps
                assert got.kind is OrbitKind.TROPICAL and got.params == params
                assert np.array_equal(got.phi, want.phi, equal_nan=True)
    # the near-range starts at pq = 9 do truncate
    assert all(o.truncated for o in _tropical_orbits(Params(3.0, 3.0), s0[:3], t0[:3], 120))


def test_rational_orbit_steps_mu_x_bit_for_bit():
    below, above = math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0)
    cases = [
        ((4.0, 4.0), (1e80, 1e80)),
        ((1.0, 1.0), (1.0, 1.0)),
        ((2.0, 1.0), (1e-200, 1.0)),
        ((3.0, 2.0), (0.7, 1.9)),
        ((2.0, 2.0), (1.3, 0.4)),
        ((1.5, 0.5), (2.0, 3.0)),
        ((below, above), (1.1, 0.9)),
        ((above, 3.0), (5.0, 0.2)),
        ((4.5, 3.5), (1e10, 1e-5)),
    ]
    rng = np.random.default_rng(24)
    for _ in range(20):
        pq = tuple(float(v) for v in rng.uniform(0.2, 4.5, 2))
        cases.append((pq, tuple(float(v) for v in 10.0 ** rng.uniform(-3.0, 3.0, 2))))
    truncated = 0
    for (p, q), start in cases:
        params = Params(p, q)
        orbit = iterate_orbit(params, OrbitKind.RATIONAL, start, 300)
        pt = PointPos(*start)
        points = [pt.as_tuple()]
        trunc = None
        for i in range(1, 301):
            try:
                pt = mu_x(params, pt)
            except RangeError:
                trunc = i
                break
            points.append(pt.as_tuple())
        assert orbit.truncated_at == trunc, (p, q, start)
        assert orbit.points.tobytes() == np.array(points, dtype=float).tobytes(), (p, q, start)
        truncated += trunc is not None
    assert 0 < truncated < len(cases)


def test_log_radius_is_the_log_of_each_points_max_norm():
    orbits = [
        iterate_orbit(Params(1.3, 0.8), OrbitKind.TROPICAL, (-0.0, 1e150), 200),
        iterate_orbit(Params(3.0, 3.0), OrbitKind.TROPICAL, (0.0, -0.0), 20),
        iterate_orbit(Params(1.0, 1.0), OrbitKind.TROPICAL, (-2.5, 0.0), 20),
        iterate_orbit(Params(2.0, 2.0), OrbitKind.RATIONAL, (1.3, 0.4), 300),
    ]
    for orbit in orbits:
        with np.errstate(divide="ignore"):
            want = np.log(np.max(np.abs(orbit.points), axis=1))
        assert orbit.log_radius.tobytes() == want.tobytes()


def test_truncated_orbit_classifies_exponential_without_length_gate():
    orbit = iterate_orbit(Params(4, 4), OrbitKind.RATIONAL, (1e80, 1e80), 50)
    verdict = growth_classification(orbit)
    assert verdict.kind is GrowthKind.EXPONENTIAL
    # one finite point leaves no jump to measure; the clamp ceiling is used
    assert verdict.ratio == math.exp(700.0)


def test_growth_bounded_like_at_small_product():
    orbit = iterate_orbit(Params(2, 1), OrbitKind.RATIONAL, (1, 1), 400)
    verdict = growth_classification(orbit)
    assert verdict.kind is GrowthKind.BOUNDED_LIKE
    # the three-cycle through (2, 5) peaks at radius 5
    assert abs(verdict.max_log_radius - math.log(5.0)) < 1e-12
    assert verdict.ratio is None and verdict.rate is None


def test_growth_linear_at_critical_product():
    orbit = iterate_orbit(Params(2, 2), OrbitKind.TROPICAL, (1, 1), 400)
    verdict = growth_classification(orbit)
    assert verdict.kind is GrowthKind.LINEAR
    assert abs(verdict.rate - 4.0) < 1e-9


def test_growth_exponential_above_critical_product():
    orbit = iterate_orbit(Params(3, 3), OrbitKind.TROPICAL, (1, -1), 200)
    verdict = growth_classification(orbit)
    assert verdict.kind is GrowthKind.EXPONENTIAL
    lam = (9.0 - 2.0 + math.sqrt(9.0 * 5.0)) / 2.0
    assert abs(verdict.ratio - lam) < 1e-12 * lam


def test_rational_critical_growth_is_exponential():
    # log coordinates grow linearly there, so the coordinates themselves
    # grow exponentially
    orbit = iterate_orbit(Params(2, 2), OrbitKind.RATIONAL, (1, 1), 400)
    assert growth_classification(orbit).kind is GrowthKind.EXPONENTIAL


def test_growth_needs_sixteen_points():
    short = iterate_orbit(Params(1, 1), OrbitKind.TROPICAL, (1, 0), 14)
    with pytest.raises(DomainError):
        growth_classification(short)
    growth_classification(iterate_orbit(Params(1, 1), OrbitKind.TROPICAL, (1, 0), 15))


def test_growth_delta_validation():
    orbit = iterate_orbit(Params(1, 1), OrbitKind.TROPICAL, (1, 0), 40)
    for bad in (0.0, -0.5, math.nan):
        with pytest.raises(DomainError):
            growth_classification(orbit, delta=bad)


def test_growth_verdict_payload_consistency():
    GrowthVerdict(GrowthKind.EXPONENTIAL, ratio=2.0)
    GrowthVerdict(GrowthKind.LINEAR, rate=0.5)
    GrowthVerdict(GrowthKind.BOUNDED_LIKE, max_log_radius=-math.inf)
    with pytest.raises(DomainError):
        GrowthVerdict(GrowthKind.EXPONENTIAL)
    with pytest.raises(DomainError):
        GrowthVerdict(GrowthKind.EXPONENTIAL, ratio=0.9)
    with pytest.raises(DomainError):
        GrowthVerdict(GrowthKind.LINEAR, rate=0.0)
    with pytest.raises(DomainError):
        GrowthVerdict(GrowthKind.BOUNDED_LIKE)


def test_conserved_drift_zero_on_periodic_orbit():
    orbit = iterate_orbit(Params(1, 1), OrbitKind.TROPICAL, (1, 0), 100)
    assert conserved_drift(orbit) == 0.0


def test_conserved_drift_rejects_rational_orbits():
    orbit = iterate_orbit(Params(1, 1), OrbitKind.RATIONAL, (1, 1), 20)
    with pytest.raises(DomainError):
        conserved_drift(orbit)


def test_conserved_drift_skips_overflowed_values():
    # the quadratic leaves float range (inf - inf turns it nan) long
    # before the coordinates do
    orbit = iterate_orbit(Params(3, 3), OrbitKind.TROPICAL, (1, 1), 300)
    assert not orbit.truncated
    assert (~np.isfinite(orbit.phi)).any()
    assert math.isfinite(conserved_drift(orbit))


def test_angle_audit_flags_negative_conserved_start():
    orbit = iterate_orbit(Params(3, 3), OrbitKind.TROPICAL, (1, -1), 50)
    assert float(orbit.phi[0]) == -3.0
    assert monotonic_angle_audit(orbit) == 2
    # a large slack absorbs the climb
    assert monotonic_angle_audit(orbit, slack=0.1) is None
    # the negative branch of the rule: the orbit keeps to the open fourth
    # quadrant and its plain atan2 angle never falls beyond the slack
    s, t = orbit.points[:, 0], orbit.points[:, 1]
    assert ((s > 0.0) & (t < 0.0)).all()
    assert (np.diff(np.arctan2(t, s)) >= -1e-12).all()
    # the start sits on the cut, so the lifted angle drops once, at step 1
    assert np.nonzero(np.diff(orbit.polar) < -1e-12)[0].tolist() == [0]


def test_angle_audit_passes_nonnegative_conserved_start():
    orbit = iterate_orbit(Params(3, 3), OrbitKind.TROPICAL, (1, 0), 50)
    assert float(orbit.phi[0]) > 0.0
    assert monotonic_angle_audit(orbit) is None
    boundary = iterate_orbit(Params(2, 2), OrbitKind.TROPICAL, (1, -1), 50)
    assert float(boundary.phi[0]) == 0.0
    assert monotonic_angle_audit(boundary) is None


def test_angle_audit_domain_errors():
    sub = iterate_orbit(Params(1, 1), OrbitKind.TROPICAL, (1, 0), 20)
    with pytest.raises(DomainError):
        monotonic_angle_audit(sub)
    rational = iterate_orbit(Params(3, 3), OrbitKind.RATIONAL, (1, 1), 5)
    with pytest.raises(DomainError):
        monotonic_angle_audit(rational)
    origin = iterate_orbit(Params(2, 2), OrbitKind.TROPICAL, (0, 0), 20)
    with pytest.raises(DomainError):
        monotonic_angle_audit(origin)


def test_batch_drift_matches_scalar_path_exactly():
    rng = np.random.default_rng(71)
    cases = []
    for _ in range(10):
        p, q = rng.uniform(0.4, 1.8, size=2)
        cases.append((p, q, *rng.uniform(-2.0, 2.0, size=2)))
    # starts near 1e150 at pq > 4: the quadratic overflows while the
    # points stay finite, and most of these orbits are truncated later
    for _ in range(10):
        p, q = rng.uniform(3.0, 8.0, size=2)
        cases.append((p, q, *rng.uniform(-1e150, 1e150, size=2)))
    overflowing = truncated = 0
    for p, q, s, t in cases:
        orbit = iterate_orbit(Params(p, q), OrbitKind.TROPICAL, (s, t), 150)
        overflowing += not np.isfinite(orbit.phi).all()
        truncated += orbit.truncated
        assert float(phi_drift_batch(p, q, s, t, 150)) == conserved_drift(orbit)
    assert overflowing >= 5 and truncated >= 5


def test_batch_drift_scale_cap_bounds_the_window():
    raw = float(phi_drift_batch(3.0, 3.0, 1.0, 1.0, 60))
    capped = float(phi_drift_batch(3.0, 3.0, 1.0, 1.0, 60, scale_cap=1e3))
    assert capped < 1e-9
    assert raw > 1e10
    # a cap below every iterate samples nothing
    assert float(phi_drift_batch(3.0, 3.0, 1.0, 1.0, 60, scale_cap=1e-6)) == 0.0
    # one pass with several caps gives each figure bit for bit
    window, full = _phi_drift_pass(3.0, 3.0, 1.0, 1.0, 60, (1e3, None))
    assert float(window) == capped and float(full) == raw


def test_batch_drift_broadcasts():
    p = np.array([[0.5], [1.0], [2.0]])
    s0 = np.array([[0.3, -0.7, 1.1, 0.2]])
    out = phi_drift_batch(p, 1.0, s0, -0.5, 50)
    assert out.shape == (3, 4)
    assert np.isfinite(out).all()


def test_batch_drift_validation():
    with pytest.raises(DomainError):
        phi_drift_batch(1.0, 1.0, 1.0, 0.0, -1)
    with pytest.raises(DomainError):
        phi_drift_batch(-1.0, 1.0, 1.0, 0.0, 10)
    with pytest.raises(DomainError):
        phi_drift_batch(1.0, 1.0, math.inf, 0.0, 10)
    # the start's quadratic overflows: nothing can be sampled, so neither
    # a warning nor a drift of 0.0, which would read as conservation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            phi_drift_batch(3.0, 3.0, 1e200, 1e200, 5)
    # no norm is <= nan, so a nan cap would sample nothing and read 0.0
    with pytest.raises(DomainError):
        phi_drift_batch(3.0, 3.0, 1.0, 1.0, 60, scale_cap=math.nan)


def test_start_policy_validation():
    with pytest.raises(DomainError):
        StartPolicy()
    with pytest.raises(DomainError):
        StartPolicy(points=((1, 1),), seed=3)
    with pytest.raises(DomainError):
        StartPolicy(points=())
    with pytest.raises(DomainError):
        StartPolicy(seed=3, count=0)
    pol = StartPolicy(points=((1, 2),))
    assert pol.points == ((1.0, 2.0),)


def test_start_policy_draws_are_reproducible_and_in_range():
    pol = StartPolicy(seed=9, count=5)
    a = pol.starts_for(OrbitKind.RATIONAL, 2, 3)
    b = pol.starts_for(OrbitKind.RATIONAL, 2, 3)
    assert a == b
    assert len(a) == 5
    assert all(0.5 <= v <= 2.0 for pt in a for v in pt)
    assert pol.starts_for(OrbitKind.RATIONAL, 2, 4) != a
    trop = pol.starts_for(OrbitKind.TROPICAL, 0, 0)
    assert all(-2.0 <= v <= 2.0 for pt in trop for v in pt)
    assert all(max(abs(s), abs(t)) >= 0.1 for s, t in trop)


def test_scan_grid_geometry():
    table = scan_grid((1.0, 2.0), (0.5, 1.5), 3, OrbitKind.TROPICAL, 40,
                      StartPolicy(seed=4, count=2))
    assert table.p_values == tuple(np.linspace(1.0, 2.0, 3))
    assert table.q_values == tuple(np.linspace(0.5, 1.5, 3))
    assert len(table.cells) == 9
    for i in range(3):
        for j in range(3):
            cell = table.cell(i, j)
            assert cell.p == table.p_values[i]
            assert cell.q == table.q_values[j]


def test_scan_grid_keeps_most_severe_verdict():
    # the origin start stays put (bounded-like) while (1, 1) grows
    # linearly; the horizon must be long enough for the log-radius
    # slope of linear growth to drop under the exponential threshold
    table = scan_grid((2.0, 2.0), (2.0, 2.0), 1, OrbitKind.TROPICAL, 400,
                      StartPolicy(points=((0.0, 0.0), (1.0, 1.0))))
    assert table.cell(0, 0).verdict.kind is GrowthKind.LINEAR


def test_scan_grid_small_product_rectangle_is_bounded_like():
    table = scan_grid((0.2, 1.0), (0.2, 1.0), 2, OrbitKind.RATIONAL, 200)
    assert all(c.verdict.kind is GrowthKind.BOUNDED_LIKE for c in table.cells)


def test_scan_grid_validation():
    with pytest.raises(DomainError):
        scan_grid((1.0, 2.0), (1.0, 2.0), 0, OrbitKind.RATIONAL, 40)
    with pytest.raises(DomainError):
        scan_grid((2.0, 1.0), (1.0, 2.0), 2, OrbitKind.RATIONAL, 40)
    with pytest.raises(DomainError):
        scan_grid((0.0, 1.0), (1.0, 2.0), 2, OrbitKind.RATIONAL, 40)
