import math
from fractions import Fraction

import numpy as np
import pytest

from mutdyn.errors import DomainError, RangeError, RegimeError
from mutdyn.floatops import EQ_TOL, close_rel, det2
from mutdyn import tropical
from mutdyn.acceptance import _expected_period, _q_for_m
from mutdyn.orbits import OrbitKind, iterate_orbit
from mutdyn.params import Params
from mutdyn.tropical import (
    PointPL,
    SignPair,
    chebyshev_u,
    detect_period,
    f_quad,
    first_sign_coherent_index,
    g_quad,
    hat_mu1,
    hat_mu2,
    mu1_c,
    mu1_c_branch_matrices,
    mu2_c,
    mu2_c_branch_matrices,
    mu_c,
    mu_c_branch_matrices,
    mu_c_inv,
    phi,
    polar_angle,
    reflect_x,
    reflect_y,
    sign_pair,
    slope_angle_delta,
    tau,
    tau1,
    tau2,
    tau_closed_form,
    tau_trig_form,
)


def _apply(mat, pt):
    (a, b), (c, d) = mat
    return (a * pt.s + b * pt.t, c * pt.s + d * pt.t)


def test_point_validation():
    PointPL(-3.0, 0.0)
    with pytest.raises(DomainError):
        PointPL(math.inf, 0.0)
    with pytest.raises(DomainError):
        PointPL(0.0, math.nan)
    for bad in (None, [1], "x", 1j, 10**400):
        with pytest.raises(DomainError):
            PointPL(bad, 0)
        with pytest.raises(DomainError):
            PointPL(0, bad)
    for good in (-2, -2.0, np.float64(-2.0), np.int64(-2)):
        pt = PointPL(good, good)
        assert all(type(v) is float and v == -2.0 for v in pt.as_tuple())


def test_five_cycle_exact():
    # p = q = 1 cycles every start in 5 steps; this one stays integral
    params = Params(1.0, 1.0)
    pt = PointPL(1.0, 0.0)
    expect = [(0.0, -1.0), (0.0, 1.0), (1.0, -1.0), (-1.0, 0.0), (1.0, 0.0)]
    for want in expect:
        pt = mu_c(params, pt)
        assert pt.as_tuple() == want
    assert phi(params, PointPL(1.0, 0.0)) == 1.0


def test_factor_step_values():
    params = Params(2.0, 3.0)
    assert mu1_c(params, PointPL(1.0, 1.0)).as_tuple() == (-1.0, 3.0)
    assert mu1_c(params, PointPL(-1.0, 1.0)).as_tuple() == (1.0, 1.0)
    assert mu2_c(params, PointPL(1.0, 2.0)).as_tuple() == (7.0, -2.0)
    assert mu2_c(params, PointPL(1.0, -2.0)).as_tuple() == (1.0, 2.0)


def test_factors_are_not_plane_involutions():
    # the off-branch inverse differs: applying the factor twice moves
    # points with a positive branch coordinate
    params = Params(2.0, 3.0)
    pt = PointPL(1.0, 1.0)
    twice = mu1_c(params, mu1_c(params, pt))
    assert twice.as_tuple() != pt.as_tuple()


def test_inverse_round_trip_exact_on_integers():
    params = Params(2.0, 3.0)
    for s in range(-3, 4):
        for t in range(-3, 4):
            pt = PointPL(float(s), float(t))
            back = mu_c_inv(params, mu_c(params, pt))
            assert back.as_tuple() == pt.as_tuple()
            fwd = mu_c(params, mu_c_inv(params, pt))
            assert fwd.as_tuple() == pt.as_tuple()


def test_inverse_round_trip_random():
    rng = np.random.default_rng(41)
    for _ in range(500):
        params = Params(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
        pt = PointPL(*rng.uniform(-5.0, 5.0, 2))
        back = mu_c_inv(params, mu_c(params, pt))
        assert abs(back.s - pt.s) <= 1e-12 * max(1.0, abs(pt.s), abs(pt.t))
        assert abs(back.t - pt.t) <= 1e-12 * max(1.0, abs(pt.s), abs(pt.t))


def test_hat_maps_are_involutions():
    # exact on integer data; a - (a - s) reintroduces rounding otherwise
    params = Params(2, 3)
    for s in range(-3, 4):
        for t in range(-3, 4):
            pt = PointPL(float(s), float(t))
            assert hat_mu1(params, hat_mu1(params, pt)).as_tuple() == pt.as_tuple()
            assert hat_mu2(params, hat_mu2(params, pt)).as_tuple() == pt.as_tuple()
    rng = np.random.default_rng(42)
    for _ in range(300):
        params = Params(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
        pt = PointPL(*rng.uniform(-5.0, 5.0, 2))
        for hat in (hat_mu1, hat_mu2):
            back = hat(params, hat(params, pt))
            assert math.isclose(back.s, pt.s, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(back.t, pt.t, rel_tol=1e-12, abs_tol=1e-12)


def test_reflection_conjugation_identities():
    # the flip-conjugated hat maps are the composition factors, and the
    # double-flip identity holds with the y flip on both sides
    rng = np.random.default_rng(43)
    pts = [PointPL(float(s), float(t)) for s in (-2, -1, 0, 1, 2) for t in (-2, -1, 0, 1, 2)]
    pts += [PointPL(*rng.uniform(-4.0, 4.0, 2)) for _ in range(200)]
    for _ in range(20):
        params = Params(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
        for pt in pts:
            lhs = reflect_y(hat_mu1(params, reflect_x(pt)))
            assert lhs.as_tuple() == mu2_c(params, pt).as_tuple()
            lhs = reflect_x(hat_mu2(params, reflect_y(pt)))
            assert lhs.as_tuple() == mu1_c(params, pt).as_tuple()
            lhs = reflect_y(hat_mu1(params, hat_mu2(params, reflect_y(pt))))
            assert lhs.as_tuple() == mu_c(params, pt).as_tuple()


def test_x_conjugated_composition_is_a_different_map():
    # the same sandwich with x flips does not reproduce the composed
    # map; the witness separates the two at a glance
    params = Params(1.0, 1.0)
    pt = PointPL(1.0, 0.0)
    lhs = reflect_x(hat_mu1(params, hat_mu2(params, reflect_x(pt))))
    assert lhs.as_tuple() == (-1.0, -0.0)
    assert mu_c(params, pt).as_tuple() == (0.0, -1.0)
    assert lhs.as_tuple() != mu_c(params, pt).as_tuple()


def test_quadratic_mirror_relation():
    rng = np.random.default_rng(44)
    for _ in range(300):
        params = Params(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
        s, t = rng.uniform(-5.0, 5.0, 2)
        pt = PointPL(float(s), float(t))
        assert g_quad(params, pt) == f_quad(params, PointPL(pt.s, -pt.t))


def test_quadratic_stable_form_matches_monomials():
    rng = np.random.default_rng(45)
    for _ in range(500):
        p = float(rng.uniform(0.2, 3.0))
        q = float(rng.uniform(0.2, 3.0))
        s, t = (float(v) for v in rng.uniform(-5.0, 5.0, 2))
        naive = p * s * s + p * q * s * t + q * t * t
        got = f_quad(Params(p, q), PointPL(s, t))
        scale = max(1.0, p * s * s, abs(p * q * s * t), q * t * t)
        assert abs(got - naive) <= 1e-13 * scale


def test_phi_keeps_its_sign_past_an_overflowing_product():
    # pq overflows, kappa = 1e200 does not, so the cross coefficient is
    # inf rather than inf / inf = nan
    params = Params(1e200, 1e200)
    assert phi(params, PointPL(1.0, 1.0)) == math.inf
    assert phi(params, PointPL(1.0, -1.0)) == -math.inf


def test_quadratic_drops_the_cross_term_where_st_is_zero():
    # pq overflows and the cross coefficient is inf; where s t = 0 the
    # term is 0, not inf * 0 = nan
    params = Params(1e200, 1e200)
    assert phi(params, PointPL(1.0, 0.0)) == 1e200
    assert f_quad(params, PointPL(1e-300, 0.0)) == 0.0
    assert g_quad(params, PointPL(0.0, 2.0)) == 4e200
    assert phi(params, PointPL(-0.0, -0.0)) == 0.0
    # a finite coefficient keeps its bits: lin^2 + (+-0) = lin^2
    for pt in (PointPL(1.5, 0.0), PointPL(0.0, -2.5), PointPL(-0.0, 3.0)):
        lin = math.sqrt(2.0) * pt.s + math.sqrt(3.0) * pt.t
        assert f_quad(Params(2.0, 3.0), pt) == lin * lin


def test_phi_uses_mirror_on_open_second_quadrant():
    params = Params(1.0, 2.0)
    inside = PointPL(-1.0, 2.0)
    assert phi(params, inside) == g_quad(params, inside)
    for boundary in (PointPL(0.0, 2.0), PointPL(-1.0, 0.0), PointPL(2.0, 2.0)):
        assert phi(params, boundary) == f_quad(params, boundary)


def test_phi_conserved_along_orbits():
    rng = np.random.default_rng(46)
    for _ in range(100):
        sub = rng.uniform() < 0.5
        pq = float(rng.uniform(0.3, 3.9)) if sub else float(rng.uniform(4.0, 9.0))
        p = float(rng.uniform(0.3, 2.5))
        params = Params(p, pq / p)
        pt = PointPL(*rng.uniform(-2.0, 2.0, 2))
        base = phi(params, pt)
        steps = 500 if sub else 60
        for _ in range(steps):
            pt = mu_c(params, pt)
            if max(abs(pt.s), abs(pt.t)) > 1e3:
                break  # past here 64-bit cancellation drowns the check
            assert abs(phi(params, pt) - base) <= 1e-9 * max(1.0, abs(base))


def test_chebyshev_recurrence_values():
    # U_n(1) = n + 1 exactly, integer arithmetic all the way up
    for n in range(0, 60):
        assert chebyshev_u(n, 1.0) == float(n + 1)
    assert chebyshev_u(-1, 5.0) == 0.0
    assert chebyshev_u(0, -3.0) == 1.0
    assert chebyshev_u(1, 0.7) == 1.4
    assert chebyshev_u(0, math.inf) == 1.0
    with pytest.raises(DomainError):
        chebyshev_u(-2, 1.0)


def test_chebyshev_sine_identity():
    rng = np.random.default_rng(47)
    for _ in range(200):
        th = float(rng.uniform(0.3, math.pi - 0.3))
        x = math.cos(th)
        for n in range(0, 31):
            ref = math.sin((n + 1) * th) / math.sin(th)
            assert abs(chebyshev_u(n, x) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_closed_form_matches_iterated_linearization():
    rng = np.random.default_rng(48)
    for _ in range(100):
        pq = float(rng.uniform(0.3, 8.0))
        p = float(rng.uniform(0.3, 2.5))
        params = Params(p, pq / p)
        start = PointPL(*rng.uniform(-3.0, 3.0, 2))
        cur = start
        for n in range(21):
            closed, closed_tilde = tau_closed_form(params, n, start)
            scale = max(1.0, abs(cur.s), abs(cur.t))
            assert abs(closed.s - cur.s) <= 1e-9 * scale
            assert abs(closed.t - cur.t) <= 1e-9 * scale
            tilde = tau1(params, cur)
            assert abs(closed_tilde.s - tilde.s) <= 1e-9 * scale
            assert abs(closed_tilde.t - tilde.t) <= 1e-9 * max(1.0, abs(tilde.t), scale)
            cur = tau(params, cur)
    with pytest.raises(DomainError):
        tau_closed_form(Params(1.0, 1.0), -1, PointPL(1.0, 1.0))
    # pq overflows while kappa = 1e200 does not
    pair = tau_closed_form(Params(1e200, 1e200), 0, PointPL(1.0, 1.0))
    assert tuple(pt.as_tuple() for pt in pair) == ((1.0, 1.0), (-1.0, 1e200))


def test_closed_form_survives_a_quotient_that_overflows():
    # p/q overflows while nu = sqrt(p)/sqrt(q) does not; nu U_1 = p
    first, second = tau_closed_form(Params(1e300, 1e-300), 0, PointPL(1.0, 1.0))
    assert first.as_tuple() == (1.0, 1.0)
    assert second.s == -1.0 and second.t == pytest.approx(1e300, rel=1e-15)


def test_closed_form_survives_a_quotient_that_underflows():
    # p/q underflows to 0 while nu = 1e-300 does not
    first, second = tau_closed_form(Params(1e-300, 1e300), 1, PointPL(1.0, 1.0))
    assert first.s == pytest.approx(1e300, rel=1e-15) and first.t == -1.0
    assert all(math.isfinite(v) for v in first.as_tuple() + second.as_tuple())


def test_trig_form_matches_chebyshev_form():
    rng = np.random.default_rng(49)
    for _ in range(100):
        pq = float(rng.uniform(0.3, 3.9))
        params = Params(1.0, pq)
        start = PointPL(*rng.uniform(-3.0, 3.0, 2))
        for n in (0, 1, 2, 5, 11, 30):
            a, a_t = tau_closed_form(params, n, start)
            b, b_t = tau_trig_form(params, n, start)
            scale = max(1.0, abs(a.s), abs(a.t), abs(a_t.t))
            assert abs(a.s - b.s) <= 1e-9 * scale
            assert abs(a.t - b.t) <= 1e-9 * scale
            assert abs(a_t.t - b_t.t) <= 1e-9 * scale
    with pytest.raises(RegimeError):
        tau_trig_form(Params(2.0, 2.0), 3, PointPL(1.0, 1.0))


def test_linearization_equals_map_on_first_quadrant_step():
    # strictly positive branch quantities make the two computations the
    # same arithmetic, so the results are identical floats
    rng = np.random.default_rng(50)
    for _ in range(300):
        params = Params(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
        pt = PointPL(float(rng.uniform(0.01, 4.0)), float(rng.uniform(0.01, 4.0)))
        assert tau(params, pt).as_tuple() == mu_c(params, pt).as_tuple()


def test_polar_angle_lift():
    params = Params(4.0, 4.0)  # nu = 1, cut at -pi/4
    cut = math.atan(-1.0)
    pa = polar_angle(params, PointPL(1.0, 0.0))
    assert pa.cut == cut
    assert pa.theta == 0.0
    # a point exactly on the cut reports the top of the branch
    on_cut = polar_angle(params, PointPL(1.0, -1.0))
    assert abs(on_cut.theta - 7.0 * math.pi / 4.0) <= 1e-15
    below = polar_angle(params, PointPL(0.5, -1.0))
    assert below.theta > math.pi
    with pytest.raises(DomainError):
        polar_angle(params, PointPL(0.0, 0.0))


def test_scalar_diagnostics_match_orbit_diagnostics_bit_for_bit():
    # polar_angle, phi and sign_pair at each stored iterate give exactly
    # the orbit's own per-point diagnostics, across regimes and scales
    rng = np.random.default_rng(54)
    for trial in range(60):
        p = float(rng.uniform(0.3, 3.0))
        params = Params(p, float(rng.uniform(0.2, 12.0)) / p)
        scale = (1.0, 1e150, 1e-150)[trial % 3]
        start = tuple(float(v) * scale for v in rng.uniform(-3.0, 3.0, 2))
        orbit = iterate_orbit(params, OrbitKind.TROPICAL, start, 60)
        for k, (s, t) in enumerate(orbit.points.tolist()):
            pt = PointPL(s, t)
            assert np.array_equal(phi(params, pt), orbit.phi[k], equal_nan=True)
            assert sign_pair(pt) == tuple(orbit.signs[k])
            if s == 0.0 and t == 0.0:
                assert math.isnan(orbit.polar[k])
            else:
                assert polar_angle(params, pt).theta == orbit.polar[k]


def test_detect_period_examples():
    q7 = 4.0 * math.cos(math.pi / 7.0) ** 2
    assert detect_period(Params(1.0, q7), PointPL(1.0, 1.0), 40) == 9
    # tolerance is relative, huge starts detect the same period
    assert detect_period(Params(1.0, q7), PointPL(1e6, 1e6), 40) == 9
    q10 = 4.0 * math.cos(math.pi / 10.0) ** 2
    assert detect_period(Params(1.0, q10), PointPL(1.0, 1.0), 40) == 6
    assert detect_period(Params(1.0, 1.0), PointPL(1.0, 0.0), 10) == 5


def test_detect_period_does_not_depend_on_its_block_size(monkeypatch):
    # the horizon is recorded a run at a time and checked for range a
    # block at a time; returns found in a later run, and the None of an
    # escape, come out as with one run.  Periods 3 to 9, and escapes at
    # pq = 9 from starts up to 1e306, land inside a run, on a run's last
    # step and just after one
    rng = np.random.default_rng(55)
    cases = []
    for m in (3, 5, 7, 10):
        params = Params(1.0, 4.0 * math.cos(math.pi / m) ** 2)
        cases += [(params, PointPL(*rng.uniform(-3.0, 3.0, 2))) for _ in range(20)]
    cases += [(Params(1.0, 2.0), PointPL(1.0, 0.5)), (Params(1.0, 3.0), PointPL(1.0, 0.5))]
    cases += [(Params(3.0, 3.0), PointPL(1.0, 1.0)), (Params(2.0, 2.0), PointPL(1.0, 1.0))]
    want = [detect_period(params, pt, 40) for params, pt in cases]
    assert want.count(None) == 2
    escape = Params(3.0, 3.0)
    starts = [(float(10.0**e), 1.0) for e in np.arange(0.0, 308.0, 2.0)]
    escapes = {_per_step_record(escape, s0, t0, 400)[2] for s0, t0 in starts}
    for block, run in ((3, 3), (64, 4), (2, 5)):
        monkeypatch.setattr(tropical, "_STEP_BLOCK", block)
        monkeypatch.setattr(tropical, "_BLOCK_NUMBERS", 2 * run)
        assert [detect_period(params, pt, 40) for params, pt in cases] == want
        assert all(detect_period(escape, PointPL(s0, t0), 400) is None for s0, t0 in starts)
        assert detect_period(escape, PointPL(1.0, 1.0), 1000) is None
        # residue 0 is a run's last step, 1 the step after a run
        assert {k % run for k in want if k} == set(range(run))
        assert {k % run for k in escapes} == set(range(run))


def test_batched_return_search_is_detect_period_per_column():
    # one _blocks pass over mixed columns to the largest horizon, each
    # column's own horizon applied afterwards, gives detect_period column
    # by column: periods 3 to 15 under horizons that cut some of them
    # off, no return in reach, and hyperbolic orbits that leave float
    # range (a value out of range is never back, so they read None)
    rng = np.random.default_rng(31)
    columns = []
    for m in (3, 4, 5, 7, 10, 13):
        q = 4.0 * math.cos(math.pi / m) ** 2
        columns += [(1.0, q, *rng.uniform(-3.0, 3.0, 2), int(rng.integers(1, 30))) for _ in range(8)]
    columns += [(1.0, 1.05, 1.0, 0.0, 60), (3.0, 3.0, 1.0, -0.5, 2000), (1e100, 1e100, 1.0, 1.0, 60)]
    p, q, s0, t0, horizon = (np.array(v) for v in zip(*columns))
    step = tropical._pl_step(p, q, s0.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        found = tropical._first_returns(s0, t0, tropical._blocks(step, s0, t0, int(horizon.max())))
    got = [int(k) if 0 < k <= n else None for k, n in zip(found, horizon)]
    want = [detect_period(Params(*c[:2]), PointPL(*c[2:4]), c[4]) for c in columns]
    assert got == want
    assert got[-3:] == [None] * 3
    for p, q, s, t, n in columns[-2:]:
        assert iterate_orbit(Params(p, q), OrbitKind.TROPICAL, (s, t), n).truncated
    # some periods are found, some fall past their column's horizon
    assert None in got[:-3] and len({k for k in got if k}) >= 5


def test_detect_period_none_in_escape_regimes():
    assert detect_period(Params(2.0, 2.0), PointPL(1.0, 1.0), 300) is None
    assert detect_period(Params(3.0, 3.0), PointPL(1.0, 1.0), 60) is None
    with pytest.raises(DomainError):
        detect_period(Params(1.0, 1.0), PointPL(1.0, 1.0), 0)


def _exact_pl_step(p, q, s, t):
    # the composed piecewise-linear step in exact arithmetic: the first
    # factor, then the second
    if s > 0:
        t = t + p * s
    return (q * t - s if t > 0 else -s), -t


def _exact_phi(p, q, s, t):
    # the conserved quadratic in exact arithmetic: ps^2 + pq st + qt^2,
    # with t negated on the open second quadrant
    if s < 0 < t:
        t = -t
    return p * s * s + p * q * s * t + q * t * t


# integer pairs of finite type (pq <= 3), each with the number of
# composed steps after which every start but the origin returns
PL_FINITE_TYPE = {(1, 1): 5, (1, 2): 3, (2, 1): 3, (1, 3): 4, (3, 1): 4}


def _rational_plane_starts(rng, n):
    # n starts (s, t) of small signed rationals, never the origin
    starts = []
    while len(starts) < n:
        nums, dens = rng.integers(-60, 61, 2), rng.integers(1, 61, 2)
        if nums.any():
            starts.append(tuple(Fraction(int(a), int(b)) for a, b in zip(nums, dens)))
    return starts


def test_exact_pl_orbits_of_finite_type_return_at_their_period():
    rng = np.random.default_rng(84)
    for (p, q), period in PL_FINITE_TYPE.items():
        for start in _rational_plane_starts(rng, 50):
            pt = start
            for k in range(1, period + 1):
                pt = _exact_pl_step(p, q, *pt)
                assert (pt == start) == (k == period), (p, q, start, k)
        # the float search finds the same period
        for s, t in rng.uniform(-3.0, 3.0, (100, 2)).tolist():
            assert detect_period(Params(p, q), PointPL(s, t), 40) == period


def test_exact_pl_orbits_conserve_phi_exactly():
    # hyperbolic pairs, then critical ones
    pairs = [(1, 5), (2, 3), (Fraction(3, 2), 3), (Fraction(1, 2), 5), (1, 4), (2, 2)]
    rng = np.random.default_rng(85)
    for p, q in pairs:
        for start in _rational_plane_starts(rng, 10):
            value = _exact_phi(p, q, *start)
            pt = start
            for _ in range(60):
                pt = _exact_pl_step(p, q, *pt)
                assert _exact_phi(p, q, *pt) == value, (p, q, start)


def _exact_in_cone(a, b, s, t):
    # the coherent cone K of p = a^2, q = b^2: s > 0, t < 0, as + bt >= 0
    return s > 0 and t < 0 and a * s + b * t >= 0


def test_exact_coherent_cone_is_forward_invariant():
    # for pq >= 4 both factors take their growth branch on K, and the
    # image keeps all three inequalities, so an orbit that enters K stays
    # in it (C5 applies tau there for that reason).  Square exponents
    # make K rational; ab = 2 is the critical product
    roots = [(1, 2), (Fraction(1, 2), 4), (Fraction(2, 3), 3), (1, Fraction(5, 2)),
             (Fraction(3, 2), Fraction(3, 2)), (3, 3)]  # fmt: skip
    rng = np.random.default_rng(87)
    for a, b in roots:
        assert a * b >= 2
        p, q = a * a, b * b
        # the ray on K's edge as + bt = 0 starts inside
        starts = _rational_plane_starts(rng, 40) + [(b, -a), (3 * b, -3 * a)]
        entered = 0
        for start in starts:
            pt, inside = start, False
            for _ in range(40):
                now = _exact_in_cone(a, b, *pt)
                assert now or not inside, (a, b, start, pt)
                inside = now
                pt = _exact_pl_step(p, q, *pt)
            entered += inside
        assert entered > len(starts) // 2, (a, b)


def test_float_orbits_enter_the_coherent_cone_and_stay():
    # p in [0.5, 3] and pq in [4, 9], every tenth pair at q = 4/p: every
    # orbit enters K = {s > 0, t < 0, sqrt(p)s + sqrt(q)t >= 0}, leaves it
    # at no finite point, and is sign coherent from its entry at the latest
    rng = np.random.default_rng(88)
    n, steps = 3000, 500
    p = rng.uniform(0.5, 3.0, n)
    q = np.where(np.arange(n) % 10 == 0, 4.0 / p, rng.uniform(4.0, 9.0, n) / p)
    s0, t0 = rng.uniform(-3.0, 3.0, (2, n))
    entries = []
    for pa, qa, s, t in zip(p.tolist(), q.tolist(), s0.tolist(), t0.tolist()):
        S, T = iterate_orbit(Params(pa, qa), OrbitKind.TROPICAL, (s, t), steps).points.T
        # scaled by 1/8 so that no finite point overflows the sum; a power
        # of two leaves its sign alone
        edge = (math.sqrt(pa) * 0.125) * S + (math.sqrt(qa) * 0.125) * T
        inside = (S > 0.0) & (T < 0.0) & (edge >= 0.0)
        entry = int(inside.argmax())
        assert inside[entry] and inside[entry:].all(), (pa, qa, s, t)
        entries.append(entry)
    # first_sign_coherent_index's reduction, for every start at once
    coherent = tropical._sign_coherent_indices(p, q, s0, t0, steps)
    assert all(c is not None and c <= e for c, e in zip(coherent, entries))


def test_float_pl_orbits_stay_within_measured_ulps_of_the_exact_orbits():
    # measured in ulps of the exact orbit's sup norm, since coordinates
    # pass near 0, where an ulp of the coordinate itself means nothing.
    # Over 300 starts per pair in [-3, 3]^2 at 200 steps the largest gaps
    # were 1.5 ulps at pq < 3 and 101.5 at pq = 3, where the gap grows by
    # about half an ulp a step (501.5 at 1000 steps); each bound below
    # leaves about half again
    rng = np.random.default_rng(86)
    steps = 200
    for p, q in PL_FINITE_TYPE:
        bound = 160 if p * q == 3 else 3
        for s0, t0 in rng.uniform(-3.0, 3.0, (25, 2)).tolist():
            exact = [(Fraction(s0), Fraction(t0))]
            for _ in range(steps):
                exact.append(_exact_pl_step(p, q, *exact[-1]))
            norm = max(max(abs(s), abs(t)) for s, t in exact)
            orbit = iterate_orbit(Params(p, q), OrbitKind.TROPICAL, (s0, t0), steps)
            gap = max(abs(Fraction(a) - b) for pt, want in zip(orbit.points.tolist(), exact)
                      for a, b in zip(pt, want))  # fmt: skip
            assert gap <= bound * Fraction(math.ulp(float(norm))), (p, q, s0, t0)


def test_sign_pair_banding():
    assert sign_pair(PointPL(3.0, -2.0)) == SignPair(1, -1)
    assert sign_pair(PointPL(1e-15, 5.0)) == SignPair(0, 1)
    # an orbit-wide scale widens the zero band
    assert sign_pair(PointPL(1e-7, 5.0), scale=1e6) == SignPair(0, 1)
    assert sign_pair(PointPL(1e-7, 5.0)) == SignPair(1, 1)


def test_first_sign_coherent_index():
    assert first_sign_coherent_index(Params(3.0, 3.0), PointPL(-1.0, -1.0)) == 2
    # already coherent and staying so
    assert first_sign_coherent_index(Params(3.0, 3.0), PointPL(5.0, -2.0)) == 0
    # periodic orbits keep leaving the coherent cone
    assert first_sign_coherent_index(Params(1.0, 1.0), PointPL(1.0, 0.0)) is None


def test_first_sign_coherent_index_matches_its_definition():
    # the signs of every stored iterate, each banded at its own scale;
    # the horizon keeps orbits far below the renormalization threshold
    rng = np.random.default_rng(53)
    for _ in range(200):
        params = Params(float(rng.uniform(0.5, 2.8)), float(rng.uniform(0.3, 3.2)))
        pt = PointPL(*(float(v) for v in rng.uniform(-3.0, 3.0, 2)))
        cap = int(rng.integers(0, 80))
        last_bad = -1
        cur = pt
        for n in range(cap + 1):
            if sign_pair(cur) != SignPair(1, -1):
                last_bad = n
            cur = mu_c(params, cur)
        want = last_bad + 1 if last_bad < cap else None
        assert first_sign_coherent_index(params, pt, cap=cap) == want


def test_slope_delta_matches_polar_difference():
    rng = np.random.default_rng(51)
    checked = 0
    while checked < 200:
        p = float(rng.uniform(0.8, 2.8))
        q = float(rng.uniform(4.2, 9.0)) / p
        params = Params(p, q)
        pt = PointPL(float(rng.uniform(0.1, 4.0)), -float(rng.uniform(0.1, 4.0)))
        img = mu_c(params, pt)
        if not (img.s > 0.0 and img.t < 0.0):
            continue
        a0 = polar_angle(params, pt)
        a1 = polar_angle(params, img)
        if a0.theta > math.pi or a1.theta > math.pi:
            continue  # lifted ends on opposite branch sides
        delta = slope_angle_delta(params, pt, img)
        assert abs((a0.theta - a1.theta) - delta) <= 1e-9
        checked += 1
    with pytest.raises(DomainError):
        slope_angle_delta(Params(3.0, 3.0), PointPL(-1.0, -1.0), PointPL(1.0, -1.0))
    for s in (0.0, -1.0):
        with pytest.raises(DomainError, match="image must have a positive first"):
            slope_angle_delta(Params(3.0, 3.0), PointPL(1.0, -1.0), PointPL(s, -1.0))


def test_branch_matrix_determinants_exact():
    rng = np.random.default_rng(52)
    for _ in range(200):
        params = Params(float(rng.uniform(0.1, 4.0)), float(rng.uniform(0.1, 4.0)))
        for mat in mu1_c_branch_matrices(params) + mu2_c_branch_matrices(params):
            assert det2(mat) == -1.0
        for mat in mu_c_branch_matrices(params):
            assert det2(mat) == 1.0


def test_branch_matrices_reproduce_the_map():
    rng = np.random.default_rng(53)
    reps = [PointPL(1.0, 1.0), PointPL(1.0, -10.0), PointPL(-1.0, 1.0), PointPL(-1.0, -1.0)]
    for _ in range(100):
        params = Params(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
        mats = mu_c_branch_matrices(params)
        for k, pt in enumerate(reps):
            t1 = pt.t + params.p * pt.s if pt.s > 0.0 else pt.t
            branch = (0 if t1 > 0.0 else 1) if pt.s > 0.0 else (2 if t1 > 0.0 else 3)
            assert branch == k
            via_mat = _apply(mats[k], pt)
            img = mu_c(params, pt)
            assert close_rel(via_mat[0], img.s, 1e-12)
            assert close_rel(via_mat[1], img.t, 1e-12)


# The array kernels against the scalar arithmetic they replace.  The
# oracles below are the per-point loops and per-n formulas as they were
# written before the kernels, kept here verbatim in their arithmetic.


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _same_bits(a, b) -> bool:
    # bit-equal, except that nans match nans (their payloads are not pinned)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and _bits(a[~nan]) == _bits(b[~nan])


def _recorder_cases():
    # (p, q, s0, t0) per column: mixed exponents, signed zeros, the
    # origin, and starts near 1e300 at pq = 9 that leave float range
    rng = np.random.default_rng(71)
    cases = [
        (3.0, 3.0, 1e300, -2e299),
        (3.0, 3.0, 2e299, 1e300),
        (1.0, 9.0, -1e300, 5e299),
        (3.0, 3.0, 1.7e300, -1.7e300),
        (2.0, 2.0, 0.0, 0.0),
        (1.0, 1.0, -0.0, 0.0),
        (1.0, 1.0, 0.0, -0.0),
        (1.5, 0.5, -0.0, -0.0),
        (1.0, 1.0, 1.0, -0.0),
    ]
    for _ in range(60):
        p = float(rng.uniform(0.3, 3.0))
        q = float(rng.uniform(0.2, 12.0)) / p
        s0, t0 = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
        cases.append((p, q, s0, t0))
    return cases


def _per_step_record(params, s, t, steps):
    # the scalar recorder with a range check after every step: the
    # oracle for the check once per block
    p, q = params.p, params.q
    ss, ts = [s], [t]
    for i in range(1, steps + 1):
        t1 = t + p * s if s > 0.0 else t
        s = -s + q * t1 if t1 > 0.0 else -s
        t = -t1
        if not (math.isfinite(s) and math.isfinite(t)):
            return ss, ts, i
        ss.append(s)
        ts.append(t)
    return ss, ts, None


def _recorded(params, s, t, steps):
    # _record_orbit's runs joined behind the start, in _per_step_record's
    # form, with a short total read as the truncation step; every run but
    # the last is full, and each starts at the step after the one before
    ss, ts = [s], [t]
    size = tropical._BLOCK_NUMBERS // 2
    lengths = []
    for first, run_s, run_t in tropical._record_orbit(params, s, t, steps):
        assert first == len(ss) and 0 < len(run_s) == len(run_t) <= size
        lengths.append(len(run_s))
        ss += run_s
        ts += run_t
    assert all(n == size for n in lengths[:-1])
    return ss, ts, (len(ss) if len(ss) <= steps else None)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_scalar_recorder_checked_per_block_has_the_per_step_bits(monkeypatch, block):
    # starts from 1 to 1e308 at pq = 9 leave float range at every step
    # from 1 to about 340, so at every place in a block; runs of
    # 2 block + 1 iterates end a check block inside each run
    monkeypatch.setattr(tropical, "_STEP_BLOCK", block)
    monkeypatch.setattr(tropical, "_BLOCK_NUMBERS", 2 * (2 * block + 1))
    params = Params(3.0, 3.0)
    seen = set()
    for e in np.arange(0.0, 308.0, 0.5):
        for s0, t0 in ((float(10.0**e), 1.0), (-1.0, -float(10.0**e))):
            got = _recorded(params, s0, t0, 400)
            want = _per_step_record(params, s0, t0, 400)
            assert got[2] == want[2], (s0, t0)
            assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
            seen.add(got[2])
    assert set(range(1, 300)) <= seen
    # horizons that end inside a block, at its end and just past it
    for steps in (0, 1, block - 1, block, block + 1, 2 * block + 1):
        for p, q, s0, t0 in _recorder_cases():
            got = _recorded(Params(p, q), s0, t0, steps)
            want = _per_step_record(Params(p, q), s0, t0, steps)
            assert got[2] == want[2]
            assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])


@pytest.mark.parametrize("run", [1, 3, 100])
def test_iterate_orbit_runs_have_the_per_step_bits(monkeypatch, run):
    # iterate_orbit copies the recorder's runs of _BLOCK_NUMBERS // 2
    # steps into its points; starts from 1 to 1e308 at pq = 9 leave float
    # range at every step from 1 to about 340, so inside a run, at a
    # run's last step and at the step just after one
    monkeypatch.setattr(tropical, "_BLOCK_NUMBERS", 2 * run)
    params = Params(3.0, 3.0)
    seen = set()
    for e in np.arange(0.0, 308.0, 0.5):
        for s0, t0 in ((float(10.0**e), 1.0), (-1.0, -float(10.0**e))):
            orbit = iterate_orbit(params, OrbitKind.TROPICAL, (s0, t0), 400)
            ss, ts, trunc = _per_step_record(params, s0, t0, 400)
            assert orbit.truncated_at == trunc, (s0, t0)
            assert orbit.points.tobytes() == _bits(np.column_stack([ss, ts]))
            seen.add(trunc)
    # residue 0 is a run's last step, 1 the step after a run
    assert {k % run for k in seen - {None}} == set(range(run))
    # horizons that end inside a run, at its end and just past it
    for steps in (0, 1, run - 1, run, run + 1, 2 * run + 1):
        for p, q, s0, t0 in _recorder_cases():
            orbit = iterate_orbit(Params(p, q), OrbitKind.TROPICAL, (s0, t0), steps)
            ss, ts, trunc = _per_step_record(Params(p, q), s0, t0, steps)
            assert orbit.truncated_at == trunc and orbit.requested_steps == steps
            assert orbit.points.tobytes() == _bits(np.column_stack([ss, ts]))


def test_truncated_orbit_holds_only_its_finite_prefix():
    # the points of a 10**6-point horizon are recorded into one buffer; an
    # orbit that leaves float range keeps a copy of its rows, not a view
    orbit = iterate_orbit(Params(3.0, 3.0), OrbitKind.TROPICAL, (1.0, -0.5), 10**6 - 1)
    assert orbit.truncated_at == len(orbit.points) < 1000
    assert orbit.points.nbytes == 16 * len(orbit.points)
    assert orbit.points.base is None
    whole = iterate_orbit(Params(1.0, 1.0), OrbitKind.TROPICAL, (3.0, -2.0), 10000)
    assert not whole.truncated and whole.points.base is None


def test_mu_c_leaves_float_range_at_the_orbit_truncation_step():
    truncated = 0
    for p, q, s0, t0 in _recorder_cases():
        params = Params(p, q)
        orbit = iterate_orbit(params, OrbitKind.TROPICAL, (s0, t0), 150)
        pt = PointPL(s0, t0)
        points = [pt.as_tuple()]
        trunc = None
        for i in range(1, 151):
            try:
                pt = mu_c(params, pt)
            except RangeError:
                trunc = i
                break
            points.append(pt.as_tuple())
        assert orbit.truncated_at == trunc, (p, q, s0, t0)
        assert orbit.points.tobytes() == np.array(points, dtype=float).tobytes(), (p, q, s0, t0)
        truncated += trunc is not None
    assert truncated == 4


def test_pl_images_out_of_float_range_raise_range_error():
    # valid inputs whose images overflow
    params = Params(1e300, 1e300)
    cases = [
        (mu1_c, (1e10, 1.0)),
        (mu2_c, (1.0, 1e10)),
        (mu_c, (1e10, 1.0)),
        (mu_c_inv, (1.0, -1e10)),
        (hat_mu1, (1.0, 1e10)),
        (hat_mu2, (1e10, 1.0)),
        (tau1, (1e10, 1.0)),
        (tau2, (1.0, 1e10)),
        (tau, (1e10, 1.0)),
        (lambda prm, pt: tau_closed_form(prm, 1, pt), (1.0, 1.0)),
    ]
    for fn, start in cases:
        with pytest.raises(RangeError):
            fn(params, PointPL(*start))


def test_pl_step_equals_the_composed_map_bit_for_bit():
    rng = np.random.default_rng(72)
    for _ in range(200):
        params = Params(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
        s, t = (float(v) for v in rng.choice([-1.0, -0.0, 0.0, 1.0], 2) * rng.uniform(0.0, 4.0, 2))
        image = mu_c(params, PointPL(s, t))
        # stepped in place, as in a block of one row
        pair = np.array(s), np.array(t)
        got = tropical._pl_step(params.p, params.q, ())(*pair, *pair)
        assert _bits(got) == _bits(image.as_tuple())


def _float_pl_step(p, q, s, t):
    # mu_c's arithmetic on Python floats, through which inf and nan pass
    t1 = t + p * s if s > 0.0 else t
    return (q * t1 - s if t1 > 0.0 else -s), -t1


def _pl_columns(rng, width):
    # exponents and starts per column: ordinary values with signed zeros,
    # infinities, nans and values near the ends of float range mixed in
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324, -5e-324]
    p, q = rng.uniform(0.2, 3.0, (2, width))
    s, t = rng.uniform(-3.0, 3.0, (2, width))
    for v in (s, t):
        pick = rng.random(width) < 0.4
        v[pick] = rng.choice(special, pick.sum())
    return p, q, s, t


def _per_column(p, q, s, t):
    # _float_pl_step on each column, checked against mu_c wherever the
    # start and the image are finite
    want = np.array([_float_pl_step(*col) for col in zip(*np.broadcast_arrays(p, q, s, t))]).T
    for pp, qq, ss, tt, ws, wt in zip(*np.broadcast_arrays(p, q, s, t), *want):
        if math.isfinite(ss) and math.isfinite(tt) and math.isfinite(ws) and math.isfinite(wt):
            assert _bits(mu_c(Params(pp, qq), PointPL(ss, tt)).as_tuple()) == _bits((ws, wt))
    return want


def _same_signed_bits(a, b) -> bool:
    # _same_bits, and the sign bit of every value that is not a nan
    nan = np.isnan(np.asarray(a, dtype=float))
    return _same_bits(a, b) and np.array_equal(np.signbit(a)[~nan], np.signbit(b)[~nan])


@pytest.mark.parametrize("width", [1, 300, 1000, 9000])
def test_pl_step_is_mu_c_per_column_bit_for_bit(width):
    # the array step into separate rows, in place, with p an array or a
    # float (C1 steps p = 1 against a column of q), and on 0-d columns;
    # then three steps through _blocks, whose blocks have one row at 9000
    # columns (so it steps in place) and several below
    rng = np.random.default_rng(width)
    p, q, s, t = _pl_columns(rng, width)
    s0, t0 = s.copy(), t.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for pp in (p, 1.0):
            want = _per_column(pp, q, s, t)
            step = tropical._pl_step(pp, q, s.shape)
            out_s, out_t = np.empty(width), np.empty(width)
            got = step(s, t, out_s, out_t)
            assert got[0] is out_s and got[1] is out_t
            assert _same_signed_bits(got, want)
            # the inputs are read, not written
            assert _same_signed_bits((s, t), (s0, t0))
            ss, tt = s.copy(), t.copy()
            assert _same_signed_bits(step(ss, tt, ss, tt), want)
        for col in range(min(width, 40)):
            zs, zt = np.array(s[col]), np.array(t[col])
            step = tropical._pl_step(p[col], q[col], ())
            got = step(zs, zt, np.empty(()), np.empty(()))
            assert _same_signed_bits(got, _float_pl_step(p[col], q[col], s[col], t[col]))
            assert _same_signed_bits(step(zs, zt, zs, zt), got)
        want = (s, t)
        for _, bs, bt in tropical._blocks(tropical._pl_step(p, q, s.shape), s, t, 3):
            for row in zip(bs, bt):
                want = _per_column(p, q, *want)
                assert _same_signed_bits(row, want)
    assert width < 8192 or len(bs) == 1


def _scalar_sign_coherent_index(params, pt, cap=500):
    # first_sign_coherent_index's former per-point loop
    p, q = params.p, params.q
    s, t = pt.s, pt.t
    a, b = abs(s), abs(t)
    norm = b if b > a else a
    last_bad = -1
    for n in range(cap + 1):
        band = EQ_TOL * norm if norm > 1.0 else EQ_TOL
        if not (s > band and t < -band):
            last_bad = n
        if n == cap:
            break
        t1 = t + p * s if s > 0.0 else t
        s = -s + q * t1 if t1 > 0.0 else -s
        t = -t1
        a, b = abs(s), abs(t)
        norm = b if b > a else a
        if norm > 1e100:
            s /= norm
            t /= norm
            norm = 1.0
    return last_bad + 1 if last_bad < cap else None


def test_renormalisation_divides_only_columns_past_1e100():
    # a column at or below 1e100 in the infinity norm keeps its bits; a
    # larger one is divided by its norm, so its bigger coordinate is
    # exactly +-1 and the other keeps its sign
    rng = np.random.default_rng(29)
    s = rng.uniform(-3.0, 3.0, 400) * 10.0 ** rng.integers(0, 200, 400)
    t = rng.uniform(-3.0, 3.0, 400) * 10.0 ** rng.integers(0, 200, 400)
    s[:5], t[:5] = [1e100, -1e100, 0.0, -0.0, 5.0], [3.0, -0.0, -1e100, 1e-300, 1e101]
    norm = np.maximum(abs(s), abs(t))
    small, big = norm <= 1e100, norm > 1e100
    assert small.sum() > 50 and big.sum() > 200
    got_s, got_t = tropical._renormalise(s.copy(), t.copy())
    assert got_s[small].tobytes() == s[small].tobytes() and got_t[small].tobytes() == t[small].tobytes()
    bigger = np.where(abs(s) >= abs(t), got_s, got_t)[big]
    assert (abs(bigger) == 1.0).all() and (np.sign(bigger) == np.sign(np.where(abs(s) >= abs(t), s, t)[big])).all()
    assert (np.signbit(got_s) == np.signbit(s)).all() and (np.signbit(got_t) == np.signbit(t)).all()
    assert got_s[4] == 5.0 / 1e101 and got_t[4] == 1.0
    # in place, on the arrays it is handed
    a, b = np.array([2e100, 1.0]), np.array([-1e100, 2.0])
    assert tropical._renormalise(a, b)[0] is a and a.tolist() == [1.0, 1.0] and b.tolist() == [-0.5, 2.0]


def test_sign_coherence_reduction_equals_the_scalar_loop():
    rng = np.random.default_rng(73)
    cases = []
    for k in range(150):
        p = float(rng.uniform(0.3, 3.0))
        q = float(rng.uniform(0.2, 12.0)) / p
        # a third of the starts sit near 1e99, so their orbits pass the
        # renormalization threshold within a few steps
        scale = 1e99 if k % 3 == 0 else 1.0
        s0, t0 = (float(v) * scale for v in rng.uniform(-3.0, 3.0, 2))
        cases.append((Params(p, q), PointPL(s0, t0)))
    cases += [(Params(3.0, 3.0), PointPL(0.0, 0.0)), (Params(1.0, 5.0), PointPL(-0.0, 1.0))]
    # p and q near 1e200: these orbits leave float range within two steps
    for _ in range(12):
        s0, t0 = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
        cases.append((Params(*(float(v) for v in rng.uniform(0.5, 5.0, 2) * 1e200)), PointPL(s0, t0)))
    renormalized = sum(
        1
        for params, pt in cases
        if np.max(np.abs(_recorded(params, pt.s, pt.t, 500)[:2])) > 1e100
    )
    assert renormalized > 30
    p, q, s0, t0 = (np.array(v) for v in zip(*((c.p, c.q, pt.s, pt.t) for c, pt in cases)))
    for cap in (0, 1, 500):
        got = tropical._sign_coherent_indices(p, q, s0, t0, cap)
        want = [_scalar_sign_coherent_index(params, pt, cap) for params, pt in cases]
        assert got == want
        # the public wrapper, one start at a time, on every fifth case
        wrapped = [first_sign_coherent_index(params, pt, cap) for params, pt in cases[::5]]
        assert wrapped == want[::5]
    assert any(n is None for n in want) and any(n is not None and n > 0 for n in want)


def _scalar_closed_form(params, n, pt):
    # tau_closed_form's former per-n formula, from a table built up to 2n + 1
    kappa, nu = tropical.kappa_nu(params)
    x = kappa / 2.0
    vals = [-1.0, 0.0, 1.0]
    for _ in range(2 * n + 1):
        vals.append(2.0 * x * vals[-1] - vals[-2])

    def u(k):
        return vals[k + 2]

    s, t = pt.s, pt.t
    sn = s * u(2 * n) + t * (u(2 * n - 1) / nu)
    tn = -s * (nu * u(2 * n - 1)) - t * u(2 * n - 2)
    tn_t = s * (nu * u(2 * n + 1)) + t * u(2 * n)
    return sn, tn, tn_t


def _scalar_trig_form(params, n, pt):
    # tau_trig_form's former per-n formula
    th = tropical.theta_of(params)
    _, nu = tropical.kappa_nu(params)
    sth = math.sin(th)
    s, t = pt.s, pt.t
    sn = s * math.sin((2 * n + 1) * th) / sth + t * math.sin(2 * n * th) / (nu * sth)
    tn = -s * nu * math.sin(2 * n * th) / sth - t * math.sin((2 * n - 1) * th) / sth
    tn_t = s * nu * math.sin((2 * n + 2) * th) / sth + t * math.sin((2 * n + 1) * th) / sth
    return sn, tn, tn_t


def _nested_trig_forms(theta, nu, top, s, t):
    # _trig_forms with every sine made in one nested comprehension over
    # k, then theta, and the same formulas on top
    th, nu, s, t = tropical._columns(theta, nu, s, t)
    flat = th.ravel().tolist()
    sines = np.array([[math.sin(k * x) for x in flat] for k in range(-1, 2 * top + 3)])
    sines = sines.reshape((-1,) + th.shape)
    sth = sines[2]
    u_lo, u_odd, u_even, u_hi = sines[0:-3:2], sines[1:-2:2], sines[2:-1:2], sines[3::2]
    sn = s * u_even / sth + t * u_odd / (nu * sth)
    tn = -s * nu * u_odd / sth - t * u_lo / sth
    tn_t = s * nu * u_hi / sth + t * u_even / sth
    return sn, tn, tn_t


@pytest.mark.parametrize("shape", [(), (600,), (7, 9)])
def test_trig_forms_equal_the_nested_sines_bit_for_bit(shape):
    # the sines are made a row of k at a time; each is still math.sin of
    # the product k * theta, for a theta of any shape
    rng = np.random.default_rng(78)
    theta = rng.uniform(0.05, 1.5, shape)
    nu, s, t = rng.uniform(0.3, 3.0, shape), rng.uniform(-3.0, 3.0, shape), rng.uniform(-3.0, 3.0, shape)
    got = tropical._trig_forms(theta, nu, 30, s, t)
    want = _nested_trig_forms(theta, nu, 30, s, t)
    assert all(a.shape == (31,) + shape and _bits(a) == _bits(b) for a, b in zip(got, want))


def test_array_closed_forms_equal_the_per_n_formulas():
    rng = np.random.default_rng(74)
    params_list = [Params(2.0, 2.0), Params(1.0, 4.0), Params(1e200, 1e200)]
    for pq in list(rng.uniform(0.2, 3.9, 8)) + list(rng.uniform(4.0, 9.0, 8)):
        p = float(rng.uniform(0.3, 2.5))
        params_list.append(Params(p, float(pq) / p))
    top = 40
    for params in params_list:
        starts = [PointPL(*(float(v) for v in rng.uniform(-3.0, 3.0, 2))), PointPL(-0.0, 1.0)]
        kappa, nu = tropical.kappa_nu(params)
        s0 = np.array([pt.s for pt in starts])
        t0 = np.array([pt.t for pt in starts])
        # one column per start, and a start on its own
        columns = tropical._closed_forms(kappa, nu, top, s0, t0)
        alone = tropical._closed_forms(kappa, nu, top, starts[0].s, starts[0].t)
        trig = None
        if params.pq < 4.0:
            trig = tropical._trig_forms(tropical.theta_of(params), nu, top, s0, t0)
        for n in range(top + 1):
            for j, pt in enumerate(starts):
                want = _scalar_closed_form(params, n, pt)
                assert _same_bits([v[n, j] for v in columns], want)
                if trig is not None:
                    assert _same_bits([v[n, j] for v in trig], _scalar_trig_form(params, n, pt))
            assert _same_bits([v[n] for v in alone], _scalar_closed_form(params, n, starts[0]))
    # kappa = 1e200 is finite, its table leaves float range from U_2 on;
    # at infinite x the table runs into inf and nan, as the list recurrence did
    kappa = tropical.kappa_nu(Params(1e200, 1e200))[0]
    assert kappa == 1e200 and math.isinf(tropical._cheb_table(kappa / 2.0, 2)[4])
    table = tropical._cheb_table(math.inf, 6)
    assert _same_bits(table, [-1.0, 0.0, 1.0, math.inf, math.inf, math.nan, math.nan, math.nan, math.nan])


def test_array_closed_forms_take_one_x_per_column():
    # several parameter pairs side by side give each pair's own columns
    rng = np.random.default_rng(75)
    params_list = [Params(float(p), float(pq) / float(p)) for p, pq in zip(rng.uniform(0.3, 2.5, 12), rng.uniform(0.2, 3.9, 12))]
    kappa, nu = (np.array(v) for v in zip(*(tropical.kappa_nu(prm) for prm in params_list)))
    theta = [tropical.theta_of(prm) for prm in params_list]
    s0, t0 = rng.uniform(-3.0, 3.0, (2, 12))
    wide = tropical._closed_forms(kappa, nu, 30, s0, t0)
    wide_trig = tropical._trig_forms(theta, nu, 30, s0, t0)
    for j, params in enumerate(params_list):
        narrow = tropical._closed_forms(kappa[j], nu[j], 30, s0[j], t0[j])
        narrow_trig = tropical._trig_forms(theta[j], nu[j], 30, s0[j], t0[j])
        for a, b in zip(wide + wide_trig, narrow + narrow_trig):
            assert _bits(a[:, j]) == _bits(b)


def test_public_closed_forms_wrap_the_array_forms():
    rng = np.random.default_rng(76)
    for _ in range(40):
        p = float(rng.uniform(0.3, 2.5))
        params = Params(p, float(rng.uniform(0.2, 3.9)) / p)
        pt = PointPL(*(float(v) for v in rng.uniform(-3.0, 3.0, 2)))
        n = int(rng.integers(0, 41))
        for public, oracle in ((tau_closed_form, _scalar_closed_form), (tau_trig_form, _scalar_trig_form)):
            a, a_t = public(params, n, pt)
            sn, tn, tn_t = oracle(params, n, pt)
            assert _bits(a.as_tuple() + a_t.as_tuple()) == _bits((sn, tn, -sn, tn_t))


def test_tau_step_has_the_bits_of_the_two_stage_composition():
    rng = np.random.default_rng(77)
    ps, qs = rng.uniform(0.2, 3.0, (2, 300))
    ss, ts = rng.uniform(-4.0, 4.0, (2, 300))
    ss[:20] = 0.0
    ss[20:40] = -0.0
    got_s, got_t = tropical._tau_step(ps, qs, ss, ts)
    for j in range(300):
        params = Params(float(ps[j]), float(qs[j]))
        pt = PointPL(float(ss[j]), float(ts[j]))
        want = tau2(params, tau1(params, pt)).as_tuple()
        assert _bits(tropical._tau_step(params.p, params.q, pt.s, pt.t)) == _bits(want)
        assert _bits(tau(params, pt).as_tuple()) == _bits(want)
        assert _bits((got_s[j], got_t[j])) == _bits(want)


def test_subcritical_rotation_number_bounds_every_orbit():
    # for pq < 4 the map commutes with positive dilations, so it acts on
    # the circle of rays with one rotation number rho whatever the start:
    # the clockwise angle swept in N steps stays within one turn of
    # N rho (Poincare).  rho = 2 theta / (pi + 2 theta), theta =
    # arccos(sqrt(pq) / 2).  Each step's turn is taken in [0, 2 pi): at
    # small pq it nears pi, where a wrapped difference would misread it
    rng = np.random.default_rng(605)
    n, steps = 500, 2000
    pq = rng.uniform(0.001, 3.999, n)
    split = np.exp(rng.uniform(-2.0, 2.0, n))
    p, q = np.sqrt(pq) * split, np.sqrt(pq) / split
    theta = np.arccos(np.sqrt(p * q) / 2.0)
    rho = 2.0 * theta / (math.pi + 2.0 * theta)
    s, t = rng.uniform(-2.0, 2.0, (2, n))
    angle = np.arctan2(t, s)
    swept = np.zeros(n)
    step = tropical._pl_step(p, q, s.shape)
    for _ in range(steps):
        s, t = step(s, t, s, t)
        nxt = np.arctan2(t, s)
        swept += np.mod(angle - nxt, 2.0 * math.pi)
        angle = nxt
    assert np.abs(swept / (2.0 * math.pi) - steps * rho).max() < 1.0


def test_detect_period_is_the_rotation_number_denominator():
    # at theta = pi / m, rho = 2 / (m + 2) = a / b in lowest terms and
    # every orbit returns after b steps
    rng = np.random.default_rng(606)
    for m in range(3, 9):
        period = Fraction(2, m + 2).denominator
        pq = 4.0 * math.cos(math.pi / m) ** 2
        for p in (1.0, 0.3, 2.5):
            for _ in range(4):
                start = PointPL(*rng.uniform(-2.0, 2.0, 2))
                assert detect_period(Params(p, pq / p), start, 40) == period


def _rotation_number(p, q):
    # the counterclockwise rotation number pi / (pi + 2 theta) of the PL map
    # at pq = 4 cos^2 theta < 4, for floats or arrays
    return math.pi / (math.pi + 2.0 * np.arccos(np.sqrt(p * q) / 2.0))


def test_turn_count_stays_within_one_turn_of_n_rho():
    # Theta_n, the counterclockwise angle swept in n steps (each step's
    # turn taken in [0, 2 pi)) over 2 pi, is a circle homeomorphism's turn
    # count: |Theta_n - n rho| < 1 at every n, for every start, down to
    # pq = 0.01 and for p / q from 1e-6 to 1e6 (the worst here is 0.81)
    rng = np.random.default_rng(607)
    n = 300
    pq = rng.uniform(0.01, 3.99, n)
    split = 10.0 ** rng.uniform(-3.0, 3.0, n)
    p, q = np.sqrt(pq) * split, np.sqrt(pq) / split
    rho = _rotation_number(p, q)
    s, t = rng.uniform(-2.0, 2.0, (2, n))
    angle, turns = np.arctan2(t, s), np.zeros(n)
    step = tropical._pl_step(p, q, s.shape)
    for k in range(1, 5001):
        s, t = step(s, t, s, t)
        nxt = np.arctan2(t, s)
        turns += np.mod(nxt - angle, 2.0 * math.pi)
        angle = nxt
        assert np.abs(turns / (2.0 * math.pi) - k * rho).max() < 1.0, k


def _sector_areas(p, q, s, t):
    # the area of {phi <= 1} swept counterclockwise from the ray at angle 0
    # to the ray through (s, t), and the whole area.  On a quadrant phi is
    # a s^2 + b s t + c t^2 with a = p, c = q and b = -pq on the second,
    # pq elsewhere, and M = ((r, 0), (b, 2c)) with r = sqrt(4ac - b^2) =
    # sqrt(pq (4 - pq)) turns the direction at angle x so that its angle
    # grows at r / (2 phi(cos x, sin x)): a sector's area is the angle
    # between the images of its rays over r, from math.atan2
    pq = p * q
    r = math.sqrt(pq * (4.0 - pq))
    axes = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))

    def part(k, u, v):
        b = -pq if k == 1 else pq
        (a0, a1), (b0, b1) = ((r * x, b * x + 2.0 * q * y) for x, y in (u, v))
        return math.atan2(a0 * b1 - a1 * b0, a0 * b0 + a1 * b1) / r

    quarters = [part(k, axes[k], axes[(k + 1) % 4]) for k in range(4)]
    k = min(int(math.atan2(t, s) % (2.0 * math.pi) // (math.pi / 2.0)), 3)
    return sum(quarters[:k]) + part(k, axes[k], (s, t)), sum(quarters)


def test_one_step_sweeps_rho_of_the_level_area():
    # the map keeps area, phi and positive dilations, so it maps the
    # sector of {phi <= 1} between two rays onto the one between their
    # images: measured by swept area it is a rigid rotation, and every
    # step sweeps rho times the whole area, here to rounding
    rng = np.random.default_rng(608)
    for _ in range(20):
        pq, split = rng.uniform(0.5, 3.5), math.exp(rng.uniform(-2.0, 2.0))
        p, q = math.sqrt(pq) * split, math.sqrt(pq) / split
        for _ in range(5):
            s, t = rng.uniform(-2.0, 2.0, 2)
            image = mu_c(Params(p, q), PointPL(s, t))
            before, area = _sector_areas(p, q, s, t)
            after, _ = _sector_areas(p, q, image.s, image.t)
            assert abs((after - before) % area / area - _rotation_number(p, q)) < 1e-14


def test_rotation_number_at_the_periodic_products_gives_the_period_table():
    # at theta = pi / m, rho = m / (m + 2), whose denominator in lowest
    # terms is the period C1 checks: m + 2 for odd m, (m + 2) / 2 for even m
    for m in range(3, 31):
        rho = Fraction(float(_rotation_number(1.0, _q_for_m(m)))).limit_denominator(100)
        assert rho == Fraction(m, m + 2) and rho.denominator == _expected_period(m), m


# the tropicalizations of mu_x's invariants at the integer pairs with pq = 4
TROPICAL_INVARIANTS = {
    (2, 2): lambda s, t: max(0, 2 * s, 2 * t) - s - t,
    (1, 4): lambda s, t: max(0, s, 2 * s, 4 * t) - s - 2 * t,
    (4, 1): lambda s, t: max(0, 4 * s, t, 2 * t) - 2 * s - t,
}


def test_plain_tropical_step_keeps_the_tropicalized_invariants():
    # integer starts stay integral and small over 30 steps, so float
    # arithmetic is exact and the invariant holds to the bit
    for (p, q), invariant in TROPICAL_INVARIANTS.items():
        params = Params(p, q)
        for s0 in range(-5, 6):
            for t0 in range(-5, 6):
                pt = PointPL(s0, t0)
                value = invariant(s0, t0)
                for _ in range(30):
                    pt = hat_mu2(params, hat_mu1(params, pt))
                    assert pt.s == int(pt.s) and pt.t == int(pt.t)
                    assert invariant(pt.s, pt.t) == value
