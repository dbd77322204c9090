"""Orbit storage, growth verdicts, drift and angle audits, scans."""
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from mutdyn import orbits, tropical
from mutdyn.errors import DomainError, RangeError
from mutdyn.export import export_json
from mutdyn.orbits import (
    _first_rises,
    _phi_drift_pass,
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


def _mu_x_orbit(params, start, steps):
    # mu_x step by step until it leaves float range: the points, and the
    # step that left (None if none did)
    pt = PointPos(*start)
    points = [pt.as_tuple()]
    trunc = None
    for i in range(1, steps + 1):
        try:
            pt = mu_x(params, pt)
        except RangeError:
            trunc = i
            break
        points.append(pt.as_tuple())
    return np.array(points, dtype=float), trunc


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
        points, trunc = _mu_x_orbit(params, start, 300)
        assert orbit.truncated_at == trunc, (p, q, start)
        assert orbit.points.tobytes() == points.tobytes(), (p, q, start)
        truncated += trunc is not None
    assert 0 < truncated < len(cases)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_rational_truncation_step_does_not_depend_on_the_range_check_block(monkeypatch, block):
    # range is checked once per block; starts from 1 to 1e300 at the
    # critical product leave float range at steps from 2 to about 200,
    # on both sides of several block ends, and each orbit is still mu_x's
    # up to the step that left
    monkeypatch.setattr(tropical, "_STEP_BLOCK", block)
    params = Params(2.0, 2.0)
    seen = set()
    for e in np.arange(0.0, 300.0, 0.25):
        for start in ((float(10.0**e), 1.0), (float(10.0**e), 1e-100)):
            orbit = iterate_orbit(params, OrbitKind.RATIONAL, start, 250)
            points, trunc = _mu_x_orbit(params, start, 250)
            assert orbit.truncated_at == trunc, start
            assert orbit.points.tobytes() == points.tobytes(), start
            seen.add(trunc)
    assert set(range(2, 22)) <= seen
    assert len({(k - 1) // block for k in seen}) >= 3
    # horizons that end inside a block, at its end and just past it
    for steps in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        for start in ((1.3, 0.4), (1e10, 1e-5), (1e150, 1e150)):
            points, trunc = _mu_x_orbit(Params(1.0, 3.0), start, steps)
            orbit = iterate_orbit(Params(1.0, 3.0), OrbitKind.RATIONAL, start, steps)
            assert orbit.truncated_at == trunc
            assert orbit.points.tobytes() == points.tobytes()


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
    # an orbit that stays in float range grows by lambda(pq) a step
    rng = np.random.default_rng(71)
    for _ in range(40):
        p, pq = rng.uniform(0.5, 3.0), rng.uniform(4.3, 9.0)
        params, start = Params(p, pq / p), tuple(rng.uniform(-2.0, 2.0, 2))
        pq = params.p * params.q
        lam = (pq - 2.0 + math.sqrt(pq * (pq - 4.0))) / 2.0
        for steps in (40, 200):
            orbit = iterate_orbit(params, OrbitKind.TROPICAL, start, steps)
            verdict = growth_classification(orbit)
            assert not orbit.truncated and verdict.kind is GrowthKind.EXPONENTIAL
            assert abs(verdict.ratio - lam) < 1e-12 * lam, (params, start, steps)


def test_periodic_lattice_orbits_never_read_exponential():
    # at the finite-type products every lattice orbit is periodic, so
    # bounded, and a short horizon cuts its oscillation at any phase:
    # Params(1, 2) from (1, 1) is the 3-cycle (1, 1), (3, -2), (-1, -1).
    # A least-squares slope of the log radius read 247 of these 1920
    # orbits as exponential; the linear test alone still reads a few of
    # them as linear below 40 steps
    starts = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if a or b]
    for p, q in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1)):
        for start in starts:
            for steps in (15, 16, 20, 30, 40, 60, 100, 200):
                orbit = iterate_orbit(Params(p, q), OrbitKind.TROPICAL, start, steps)
                kind = growth_classification(orbit).kind
                assert kind is not GrowthKind.EXPONENTIAL, (p, q, start, steps)
                assert kind is GrowthKind.BOUNDED_LIKE or steps < 40, (p, q, start, steps)


def test_orbits_near_the_top_of_float_range_keep_their_verdicts():
    # radii whose plain sum overflows: the fit adds pre-scaled terms, so
    # no partial sum leaves float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for steps in (40, 200):
            for start in ((1e306, 1e306), (1e307, -1e307), (1.5e308, 0.0)):
                orbit = iterate_orbit(Params(1, 1), OrbitKind.TROPICAL, start, steps)
                verdict = growth_classification(orbit)
                assert not orbit.truncated and verdict.kind is GrowthKind.BOUNDED_LIKE
            # the critical orbit from (1, 1) grows by 4 a step; scaled, so
            # does its rate
            orbit = iterate_orbit(Params(2, 2), OrbitKind.TROPICAL, (1e305, 1e305), steps)
            verdict = growth_classification(orbit)
            assert verdict.kind is GrowthKind.LINEAR and abs(verdict.rate - 4e305) < 1e-9 * 4e305


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


def test_conserved_drift_rejects_a_start_whose_quadratic_overflows():
    orbit = iterate_orbit(Params(3, 3), OrbitKind.TROPICAL, (1e200, 1e200), 5)
    assert not orbit.truncated
    with pytest.raises(DomainError, match="out of float range at the start"):
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


def test_first_rises_of_columns_are_the_audit_of_each_orbit():
    # escape orbits from starts of both signs of the conserved value, one
    # column each: the column reduction gives each orbit's audit, and the
    # first index of the rule written out step by step; negated atan2
    # gives the first fall of the plain angle the same way
    rng = np.random.default_rng(707)
    starts = [(1.0, -1.0), (1.0, 0.0)] + [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(40)]
    signs, found = set(), set()
    for params in (Params(3.0, 3.0), Params(2.0, 2.0), Params(1.3, 4.1)):
        for steps in (0, 1, 60):
            runs = [iterate_orbit(params, OrbitKind.TROPICAL, pt, steps) for pt in starts]
            polar = np.column_stack([o.polar for o in runs])
            plain = np.column_stack([np.arctan2(o.points[:, 1], o.points[:, 0]) for o in runs])
            for theta in (polar, -plain):
                rose = [np.nonzero(np.diff(col) > 1e-12)[0] for col in theta.T]
                assert _first_rises(theta) == [int(r[0]) + 1 if len(r) else None for r in rose]
            rises = _first_rises(polar)
            assert rises == [monotonic_angle_audit(o) for o in runs]
            signs.update(float(o.phi[0]) < 0.0 for o in runs)
            found.update(r is not None for r in rises)
            if params == Params(3.0, 3.0) and steps == 60:
                # from (1, -1) the lifted angle first rises at step 2
                assert rises[0] == 2
    assert signs == found == {True, False}


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
    # a cap that float() takes acts as its float
    assert float(phi_drift_batch(3.0, 3.0, 1.0, 1.0, 60, scale_cap="1e3")) == capped
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


def test_batch_drift_rejects_a_cap_below_zero():
    # no norm is below 0 either: without the check the drift read 0.0
    # here, against about 5e290 uncapped
    for cap in (-1.0, -math.inf, -5e-324):
        with pytest.raises(DomainError, match="scale_cap must be >= 0"):
            phi_drift_batch(2.5, 2.5, 1.0, 0.3, 500, scale_cap=cap)
    # a cap of 0 samples only at the origin, and stays legal
    assert float(phi_drift_batch(2.5, 2.5, 1.0, 0.3, 500, scale_cap=0.0)) == 0.0
    assert float(phi_drift_batch(1.0, 1.0, 0.0, 0.0, 5, scale_cap=0.0)) == 0.0


def test_start_policy_validation():
    with pytest.raises(DomainError):
        StartPolicy()
    with pytest.raises(DomainError):
        StartPolicy(points=((1, 1),), seed=3)
    with pytest.raises(DomainError):
        StartPolicy(points=())
    with pytest.raises(DomainError):
        StartPolicy(seed=3, count=0)
    # a count is stored as the int it was checked to be
    assert type(StartPolicy(seed=3, count=2.0).count) is int
    pol = StartPolicy(points=((1, 2),))
    assert pol.points == ((1.0, 2.0),)


def test_start_policy_seed_is_checked_at_construction():
    # a seed follows the count rule, so it is never truncated
    for seed, message in ((1.5, "seed must be an integer, got 1.5"),
                          (math.nan, "seed must be an integer, got nan"),
                          (-1, "seed must be >= 0, got -1")):  # fmt: skip
        with pytest.raises(DomainError, match=message):
            StartPolicy(seed=seed, count=2)
    # an integral value is stored as the int it was checked to be
    assert type(StartPolicy(seed=np.int64(3)).seed) is int
    assert StartPolicy(seed=2.0).seed == 2


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
    # linearly
    table = scan_grid((2.0, 2.0), (2.0, 2.0), 1, OrbitKind.TROPICAL, 400,
                      StartPolicy(points=((0.0, 0.0), (1.0, 1.0))))
    assert table.cell(0, 0).verdict.kind is GrowthKind.LINEAR


def test_scans_off_the_critical_band_read_their_regime():
    # the benchmark's grid with 4 seeded starts a cell: outside
    # |pq - 4| < 0.25 a cell reads bounded-like below the critical
    # product and exponential above it, at every horizon.  A
    # least-squares slope of the log radius read 15 rational and 27
    # tropical cells against their regime at 40 steps
    regime = {True: GrowthKind.BOUNDED_LIKE, False: GrowthKind.EXPONENTIAL}
    for kind in OrbitKind:
        for steps in (40, 200, 2000):
            table = scan_grid((0.5, 3.0), (0.5, 3.0), 12, kind, steps, StartPolicy(seed=1, count=4))
            wrong = [
                (c.p, c.q, c.verdict.kind)
                for c in table.cells
                if abs(c.p * c.q - 4.0) >= 0.25 and c.verdict.kind is not regime[c.p * c.q < 4.0]
            ]
            assert wrong == [], (kind, steps)


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


def _per_orbit_scan(p_range, q_range, resolution, kind, steps, policy):
    # scan_grid as one iterate_orbit and one growth_classification per
    # start, every start of every cell: the oracle of the batched pass
    p_values = tuple(float(v) for v in np.linspace(*p_range, resolution))
    q_values = tuple(float(v) for v in np.linspace(*q_range, resolution))
    cells = []
    for i, p in enumerate(p_values):
        for j, q in enumerate(q_values):
            verdicts = [
                growth_classification(iterate_orbit(Params(p, q), kind, start, steps))
                for start in policy.starts_for(kind, i, j)
            ]
            rank = [orbits._SEVERITY[v.kind] for v in verdicts]
            cells.append(orbits.ScanCell(p, q, verdicts[rank.index(max(rank))]))
    return orbits.ScanTable(p_values, q_values, kind, steps, tuple(cells))


def _verdict_bits(v):
    fields = (v.ratio, v.rate, v.max_log_radius)
    return (v.kind,) + tuple(None if f is None else f.hex() for f in fields)


# (p, q) and starts of the birational map that leave float range at the
# step named, integer exponents on either side or both included
_LEAVING = {
    1: [(2.0, 2.0, 1.0, 1e100), (2.5, 1.6, 5e-324, 1.0), (4 / 3, 3.0, 1.0, 1e100)],
    63: [(2.0, 2.0, 1.0, 0.10964781954565196), (2.5, 1.6, 1.0, 0.11220184535992801),
         (3.0, 4 / 3, 1.1220184543019562e68, 1e100), (4 / 3, 3.0, 17.78279410038923, 1.0)],
    64: [(2.0, 2.0, 1.0, 0.11481536207778077), (2.5, 1.6, 1.0, 0.11748975542036805),
         (1.0, 4.0, 0.13182567377306328, 1.0), (4.0, 1.0, 1.0, 0.13182567377306328)],
    65: [(2.0, 2.0, 1.0, 0.12022644338643985), (2.5, 1.6, 1.0, 0.12302687700418015),
         (1.0, 4.0, 0.13803842637381353, 1.0), (4 / 3, 3.0, 2.8183829312645647e152, 1e100)],
}  # fmt: skip


def _rational_columns():
    rng = np.random.default_rng(131)
    pairs = [(n, m) for n in (1.0, 2.0, 3.0, 4.0) for m in (1.0, 2.5, 4.0)]
    pairs += [(2.5, n) for n in (1.0, 2.0, 3.0, 4.0)] + [(0.7, 0.9), (1.9, 2.2), (3.0, 3.0)]
    columns = [(p, q, *rng.uniform(0.5, 2.0, 2).tolist()) for p, q in pairs for _ in range(2)]
    # the only column of its power-branch group
    columns.append((1.0, 3.0, *rng.uniform(0.5, 2.0, 2).tolist()))
    for at, leaving in _LEAVING.items():
        for p, q, x, y in leaving:
            assert iterate_orbit(Params(p, q), OrbitKind.RATIONAL, (x, y), 100).truncated_at == at
        columns += leaving
    # a shuffle mixes the power-branch groups
    return [columns[k] for k in rng.permutation(len(columns))]


def test_batched_rational_verdicts_equal_the_per_orbit_classification():
    columns = _rational_columns()
    p, q, x, y = (np.array(v) for v in zip(*columns))
    for steps in (15, 16, 64, 65, 200, 2000):
        got = orbits._rational_verdicts(p, q, x, y, steps)
        for column, verdict in zip(columns, got):
            pa, qa, xa, ya = column
            orbit = iterate_orbit(Params(pa, qa), OrbitKind.RATIONAL, (xa, ya), steps)
            want = growth_classification(orbit)
            assert _verdict_bits(verdict) == _verdict_bits(want), (column, steps)
        kinds = {v.kind for v in got}
        assert GrowthKind.EXPONENTIAL in kinds and GrowthKind.BOUNDED_LIKE in kinds


def test_batched_rational_scan_equals_the_per_orbit_scan_in_bytes():
    explicit = StartPolicy(points=((1.0, 1.0), (0.6, 1.7), (1.0, 1e100)))
    cases = [(15, StartPolicy(seed=5, count=2)), (16, explicit), (65, StartPolicy(seed=6, count=3))]
    cases += [(200, explicit), (2000, StartPolicy(seed=7, count=2))]
    for steps, policy in cases:
        args = ((0.5, 4.0), (1.0, 4.0), 4, OrbitKind.RATIONAL, steps, policy)
        got, want = scan_grid(*args), _per_orbit_scan(*args)
        assert export_json(got) == export_json(want)
        for a, b in zip(got.cells, want.cells):
            assert _verdict_bits(a.verdict) == _verdict_bits(b.verdict)


def test_tail_pass_over_many_columns_is_the_per_orbit_reduction():
    # piecewise-linear orbits reduced in 64-row blocks of all columns at
    # once: critical pairs grow linearly, so their verdicts carry the
    # fit slope, whose bits must not depend on the width either
    rng = np.random.default_rng(505)
    p = rng.uniform(0.5, 3.0, 40)
    q = np.where(np.arange(40) < 20, 4.0 / p, rng.uniform(0.5, 3.0, 40))
    s, t = rng.uniform(-2.0, 2.0, (2, 40))
    s[-5:] *= 1e300  # orbits that leave float range
    for steps in (15, 16, 64, 65, 200):
        step = partial(tropical._pl_step, p, q)
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = [(i, tropical._sup_norm(*ab)) for i, *ab in tropical._blocks(step, s, t, steps)]
        alive, *reduced = orbits._tail_pass(tropical._sup_norm(s, t), blocks, steps)
        got = [orbits._growth_verdict(steps, not ok, *col) for ok, *col in zip(alive, *reduced)]
        want = [growth_classification(iterate_orbit(Params(*pq), OrbitKind.TROPICAL, st, steps))
                for pq, st in zip(zip(p, q), zip(s, t))]
        assert [_verdict_bits(v) for v in got] == [_verdict_bits(v) for v in want], steps
        assert {v.kind for v in got} == set(GrowthKind), steps


def test_scan_errors_are_the_per_orbit_loops():
    long = StartPolicy(points=((1.0, 1.0),))
    bad = StartPolicy(points=((math.nan, 1.0), (1.0, 1.0)))
    bad_second = StartPolicy(points=((1.0, 1.0), (math.inf, 1.0)))
    negative = StartPolicy(points=((1.0, 1.0), (-1.0, 1.0)))
    leaving = StartPolicy(points=((5e-324, 1.0),))
    cases = [(-1, long), (MAX_ORBIT_POINTS, long), (MAX_ORBIT_POINTS, bad), (14, long)]
    cases += [(40, bad), (40, bad_second)]
    rational_cases = cases + [(40, negative)]
    for kind in OrbitKind:
        for steps, policy in cases if kind is OrbitKind.TROPICAL else rational_cases:
            args = ((1.0, 2.0), (1.0, 2.0), 2, kind, steps, policy)
            with pytest.raises(DomainError) as want:
                _per_orbit_scan(*args)
            with pytest.raises(DomainError) as got:
                scan_grid(*args)
            assert str(got.value) == str(want.value), (kind, steps)
    # every start is checked before any orbit is classified, so a short
    # scan with a bad start reports the start, not the horizon
    with pytest.raises(DomainError) as want:
        PointPos(-1.0, 1.0)
    with pytest.raises(DomainError) as got:
        scan_grid((1.0, 2.0), (1.0, 2.0), 2, OrbitKind.RATIONAL, 14, negative)
    assert str(got.value) == str(want.value)
    # a short rational scan whose every orbit leaves float range has its table
    args = ((1.0, 2.0), (1.0, 2.0), 2, OrbitKind.RATIONAL, 3, leaving)
    table = scan_grid(*args)
    assert export_json(table) == export_json(_per_orbit_scan(*args))
    assert all(c.verdict.kind is GrowthKind.EXPONENTIAL for c in table.cells)


def test_tropical_scan_skips_the_starts_after_an_exponential_one(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return iterate_orbit(*args)

    monkeypatch.setattr(orbits, "iterate_orbit", counted)
    for steps, policy in ((15, StartPolicy(seed=8, count=4)), (400, StartPolicy(seed=9, count=4)),
                          (400, StartPolicy(points=((1.0, 1.0), (0.0, 0.0))))):  # fmt: skip
        args = ((0.5, 3.0), (0.5, 3.0), 4, OrbitKind.TROPICAL, steps, policy)
        calls.clear()
        got = scan_grid(*args)
        assert export_json(got) == export_json(_per_orbit_scan(*args))
        assert len(calls) < 16 * len(policy.starts_for(OrbitKind.TROPICAL, 0, 0))
    # the start after an exponential one is still checked
    policy = StartPolicy(points=((1e300, 1e300), (math.inf, 0.0)))
    with pytest.raises(DomainError, match="must be finite"):
        scan_grid((3.0, 3.0), (3.0, 3.0), 1, OrbitKind.TROPICAL, 40, policy)


def _frozen_drift_pass(p, q, s, t, steps, scale_caps):
    # the drift pass one step at a time: the oracle for the blocked pass
    p, q, s, t = tropical._columns(p, q, s, t)
    with np.errstate(over="ignore", invalid="ignore"):
        coefs = tropical._quad_coefs(p, q)
        base = tropical._conserved(coefs, s, t)
        denom = np.maximum(1.0, np.abs(base))
        drifts = [np.zeros_like(base) for _ in scale_caps]
        for _ in range(steps):
            s, t = tropical._pl_step(p, q, s, t)
            d = orbits._drift(tropical._conserved(coefs, s, t), base, denom)
            norm = tropical._sup_norm(s, t)
            for i, cap in enumerate(scale_caps):
                sample = d if cap is None else np.where(norm <= cap, d, 0.0)
                drifts[i] = np.maximum(drifts[i], sample)
    return drifts


def test_blocked_drift_pass_equals_the_per_step_loop_bit_for_bit():
    rng = np.random.default_rng(303)
    p = rng.uniform(0.3, 6.0, 120)
    q = rng.uniform(0.3, 6.0, 120)
    s = rng.uniform(-2.0, 2.0, 120)
    t = rng.uniform(-2.0, 2.0, 120)
    s[:15] *= 1e150  # quadratics that overflow, orbits that truncate
    block = tropical._STEP_BLOCK
    for steps in (0, 1, block - 1, block, block + 1, 3 * block + 5):
        got = _phi_drift_pass(p, q, s, t, steps, (1e3, None))
        want = _frozen_drift_pass(p, q, s, t, steps, (1e3, None))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    # broadcast shapes fold per block as well
    got = _phi_drift_pass(p[:6, None], 1.5, s[None, :5], -0.5, block + 1, (None,))[0]
    want = _frozen_drift_pass(p[:6, None], 1.5, s[None, :5], -0.5, block + 1, (None,))[0]
    assert got.shape == (6, 5) and got.tobytes() == want.tobytes()


def _array_passes(steps):
    # what the two array passes over tropical._blocks return, as bytes
    p, q, x, y = (np.array(v) for v in zip(*_rational_columns()))
    rng = np.random.default_rng(404)
    tp, tq = rng.uniform(0.3, 6.0, (2, 60))
    s, t = rng.uniform(-2.0, 2.0, (2, 60))
    s[:10] *= 1e150  # orbits that truncate, quadratics that overflow
    got = [_verdict_bits(v) for v in orbits._rational_verdicts(p, q, x, y, steps)]
    return got + [d.tobytes() for d in _phi_drift_pass(tp, tq, s, t, steps, (1e3, None))]


@pytest.mark.parametrize("block, numbers", [
    pytest.param(block, numbers, id=f"{block}" + (f"-numbers{numbers}" if numbers else ""))
    for numbers in (None, 1, 100) for block in (1, 3, 64)
])  # fmt: skip
def test_array_passes_do_not_depend_on_the_step_block(monkeypatch, block, numbers):
    # the block buffers are reused, so a pass that read a row after its
    # block, or a step that wrote into a row it still reads, would change
    # bits most at small blocks; a budget of numbers gives each pass its
    # own rows by its width (one row for the 60-column passes at 100)
    want = {steps: _array_passes(steps) for steps in (15, 64, 65, 200)}
    monkeypatch.setattr(tropical, "_STEP_BLOCK", block)
    if numbers:
        monkeypatch.setattr(tropical, "_BLOCK_NUMBERS", numbers)
    for steps, passes in want.items():
        assert _array_passes(steps) == passes, steps


def test_wide_array_passes_hold_blocks_of_a_fixed_size():
    # a block holds at most tropical._BLOCK_NUMBERS numbers, so a pass's
    # temporaries do not grow with its width.  Traced peaks, blocks of 64
    # rows against the budget: a 4000-column drift pass 17 against 0.8 MB,
    # a 4096-orbit rational scan 25.6 against 3.3 MB (its table included)
    rng = np.random.default_rng(505)
    p, q = rng.uniform(0.3, 3.0, (2, 4000))
    s, t = rng.uniform(-2.0, 2.0, (2, 4000))
    policy = StartPolicy(seed=1, count=4)
    passes = (
        (lambda: phi_drift_batch(p, q, s, t, 200), 4e6),
        (lambda: scan_grid((0.5, 3.0), (0.5, 3.0), 32, OrbitKind.RATIONAL, 200, policy), 8e6),
    )
    for run, bound in passes:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


def test_drift_pass_starts_where_the_cross_term_meets_an_overflowing_product():
    # s t = 0 at pq = 1e400: the start's quadratic is 1e200, not nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drift = phi_drift_batch(1e200, 1e200, 1.0, 0.0, 3)
    assert float(drift) == 0.0


def test_start_policy_count_belongs_to_seeded_draws():
    with pytest.raises(DomainError, match="count needs a seed"):
        StartPolicy(points=((1.0, 1.0),), count=3)
    assert StartPolicy(points=((1.0, 1.0),), count=1).count == 1


def test_scan_unknown_kind_raises():
    for kind in ("rational", None):
        with pytest.raises(DomainError, match="unknown orbit kind"):
            scan_grid((1.0, 2.0), (1.0, 2.0), 2, kind, 40)


def test_iterate_orbit_unknown_kind_raises():
    # the kind is the enum, not its value
    with pytest.raises(DomainError, match="unknown orbit kind"):
        iterate_orbit(Params(1.0, 1.0), "rational", (1.0, 1.0), 5)


def _scan_error(kind, steps, p_range=(1.0, 2.0), policy=None, resolution=2):
    # the message of the DomainError scan_grid raises
    with pytest.raises(DomainError) as err:
        scan_grid(p_range, (1.0, 2.0), resolution, kind, steps, policy)
    return str(err.value)


def test_scan_reports_the_horizon_then_exponents_then_starts_then_length():
    # each input carries every fault after the one it must report
    bad_start = StartPolicy(points=((1.0, 1.0), (math.nan, 1.0)))
    for kind in OrbitKind:
        assert _scan_error(kind, -1, (1.0, math.inf), bad_start) == "steps must be >= 0, got -1"
        assert _scan_error(kind, -1, (2.0, 1.0), bad_start, 0) == "steps must be >= 0, got -1"
        assert "over the cap" in _scan_error(kind, MAX_ORBIT_POINTS, (1.0, math.inf), bad_start)
        assert _scan_error(kind, 14, (1.0, math.inf), bad_start, 0).startswith(
            "exponents must be finite and positive, got p=inf"
        )
        assert _scan_error(kind, 14, (2.0, 1.0), bad_start, 0).startswith(
            "parameter ranges must be ordered"
        )
        assert _scan_error(kind, 14, policy=bad_start, resolution=0) == "resolution must be >= 1, got 0"
        with pytest.raises(DomainError) as want:
            (PointPos if kind is OrbitKind.RATIONAL else PointPL)(math.nan, 1.0)
        assert _scan_error(kind, 14, policy=bad_start) == str(want.value)
        assert _scan_error(kind, 14) == "growth classification needs at least 16 points, got 15"


def test_short_horizon_scans_equal_the_per_orbit_scan():
    # single-fault inputs at horizons around the 16-point floor: a
    # scan's table, or its error message, is the per-orbit loop's
    boxes = (((1.0, 2.0), (1.0, 2.0)), ((2.5, 4.0), (2.5, 4.0)))
    for kind in OrbitKind:
        # a start that leaves float range at the first step in both boxes
        leaving = (5e-324, 1.0) if kind is OrbitKind.RATIONAL else (1e308, 1e308)
        policies = (
            StartPolicy(points=((1.0, 1.0), (0.6, 1.7))),
            StartPolicy(seed=5, count=3),
            StartPolicy(points=((math.nan, 1.0), (1.0, 1.0))),
            StartPolicy(points=(leaving,)),
            StartPolicy(points=(leaving, (1.0, 1.0))),
            StartPolicy(points=(leaving, (math.inf, 1.0))),
        )
        outcomes = set()
        for steps in range(21):
            # with no step taken the leaving start is a fault of its own
            for p_range, q_range in boxes:
                for policy in policies if steps else policies[:5]:
                    args = (p_range, q_range, 2, kind, steps, policy)
                    try:
                        want = export_json(_per_orbit_scan(*args))
                    except DomainError as exc:
                        with pytest.raises(DomainError) as got:
                            scan_grid(*args)
                        assert str(got.value) == str(exc), (kind, steps, policy)
                        outcomes.add(str(exc).split(",")[0])
                        continue
                    assert export_json(scan_grid(*args)) == want, (kind, steps, policy)
                    outcomes.add("table")
        assert len(outcomes) == 3, outcomes
