import math

import numpy as np
import pytest

from mutdyn.errors import DomainError, RangeError, RegimeError
from mutdyn.floatops import EQ_TOL, close_rel, det2
from mutdyn import tropical
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
    # the horizon is recorded block by block; returns found in a later
    # block, and the None of an escape, come out as with one block
    rng = np.random.default_rng(55)
    cases = []
    for m in (3, 5, 7, 10):
        params = Params(1.0, 4.0 * math.cos(math.pi / m) ** 2)
        cases += [(params, PointPL(*rng.uniform(-3.0, 3.0, 2))) for _ in range(20)]
    cases += [(Params(3.0, 3.0), PointPL(1.0, 1.0)), (Params(2.0, 2.0), PointPL(1.0, 1.0))]
    want = [detect_period(params, pt, 40) for params, pt in cases]
    assert want.count(None) == 2
    monkeypatch.setattr(tropical, "_PERIOD_BLOCK", 3)
    assert [detect_period(params, pt, 40) for params, pt in cases] == want
    assert detect_period(Params(3.0, 3.0), PointPL(1.0, 1.0), 1000) is None


def test_detect_period_none_in_escape_regimes():
    assert detect_period(Params(2.0, 2.0), PointPL(1.0, 1.0), 300) is None
    assert detect_period(Params(3.0, 3.0), PointPL(1.0, 1.0), 60) is None
    with pytest.raises(DomainError):
        detect_period(Params(1.0, 1.0), PointPL(1.0, 1.0), 0)


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


def test_record_orbits_columns_equal_the_scalar_recorder_bit_for_bit():
    cases = _recorder_cases()
    p, q, s0, t0 = (np.array(v) for v in zip(*cases))
    for steps in (0, 1, 150):
        ss, ts, truncs = tropical._record_orbits(p, q, s0, t0, steps)
        assert ss.shape == ts.shape == (steps + 1, len(cases))
        for j, (pj, qj, sj, tj) in enumerate(cases):
            want_s, want_t, want_trunc = tropical._record_orbit(Params(pj, qj), sj, tj, steps)
            assert truncs[j] == want_trunc
            end = len(want_s)
            assert _bits(ss[:end, j]) == _bits(want_s)
            assert _bits(ts[:end, j]) == _bits(want_t)
    # the near-range starts truncate, at different steps
    _, _, truncs = tropical._record_orbits(p, q, s0, t0, 150)
    assert None not in truncs[:4] and len(set(truncs[:4])) > 1
    # scalars broadcast against start arrays
    ss, ts, _ = tropical._record_orbits(2.0, 3.0, s0, t0, 20)
    for j, (_, _, sj, tj) in enumerate(cases):
        want_s, want_t, trunc = tropical._record_orbit(Params(2.0, 3.0), sj, tj, 20)
        assert _bits(ss[: len(want_s), j]) == _bits(want_s)


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
        got = tropical._pl_step(params.p, params.q, np.array(s), np.array(t))
        assert _bits(got) == _bits(image.as_tuple())


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
        if np.max(np.abs(tropical._record_orbit(params, pt.s, pt.t, 500)[:2])) > 1e100
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
