import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from mutdyn.errors import DomainError, RangeError, RegimeError
from mutdyn.floatops import JAC_STEP, ulp_gap
from mutdyn.orbits import OrbitKind, _rational_step, iterate_orbit
from mutdyn.params import Params
from mutdyn.rational import (
    H_dist,
    PointPos,
    UVPoint,
    UVRegion,
    V_dist,
    _central_jacobian,
    fixed_curves,
    from_uv,
    mu1_uv,
    mu1_x,
    mu2_uv,
    mu2_x,
    mu_uv,
    mu_x,
    mu_x_closed,
    mu_x_inv,
    mu_x_log,
    region_uv,
    symplectic_residual,
    to_uv,
)
from mutdyn.tropical import PointPL, _blocks, hat_mu1, hat_mu2


def _random_params(rng, lo=0.3, hi=3.0):
    return Params(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))


def _random_point(rng, lo=0.3, hi=3.0):
    return PointPos(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))


def test_point_validation():
    with pytest.raises(DomainError):
        PointPos(0.0, 1.0)
    with pytest.raises(DomainError):
        PointPos(1.0, -2.0)
    with pytest.raises(DomainError):
        PointPos(math.inf, 1.0)
    with pytest.raises(DomainError):
        UVPoint(1.0, math.nan)
    for bad in (None, [1], "x", 1j, 10**400):
        with pytest.raises(DomainError):
            PointPos(bad, 1)
        with pytest.raises(DomainError):
            UVPoint(1, bad)
    for good in (2, 2.0, np.float64(2.0), np.int64(2)):
        for pt in (PointPos(good, good), UVPoint(good, good)):
            assert all(type(v) is float and v == 2.0 for v in pt.as_tuple())


def test_factor_maps_are_involutions():
    rng = np.random.default_rng(31)
    for _ in range(300):
        params = _random_params(rng)
        pt = _random_point(rng)
        for refl in (mu1_x, mu2_x):
            back = refl(params, refl(params, pt))
            assert abs(back.x - pt.x) <= 1e-12 * pt.x
            assert abs(back.y - pt.y) <= 1e-12 * pt.y


def test_factor_fixed_curves_are_fixed():
    rng = np.random.default_rng(32)
    for _ in range(200):
        params = _random_params(rng)
        c = float(rng.uniform(0.2, 4.0))
        x_fix, y_fix = fixed_curves(params, c)
        on1 = PointPos(x_fix, c)
        img1 = mu1_x(params, on1)
        assert abs(img1.x - on1.x) <= 1e-12 * max(1.0, on1.x)
        on2 = PointPos(c, y_fix)
        img2 = mu2_x(params, on2)
        assert abs(img2.y - on2.y) <= 1e-12 * max(1.0, on2.y)


def test_hand_step():
    # p = q = 1 from (1, 1): x' = (1+1)/1 = 2, y' = (1+2)/1 = 3
    img = mu_x(Params(1.0, 1.0), PointPos(1.0, 1.0))
    assert img.as_tuple() == (2.0, 3.0)


def test_five_cycle_p1_q1():
    params = Params(1.0, 1.0)
    pt = PointPos(1.0, 1.0)
    seen = [pt.as_tuple()]
    for _ in range(5):
        pt = mu_x(params, pt)
        seen.append(pt.as_tuple())
    assert seen[1:4] == [(2.0, 3.0), (2.0, 1.0), (1.0, 2.0)]
    assert max(abs(seen[5][0] - 1.0), abs(seen[5][1] - 1.0)) <= 1e-12


def test_composed_vs_single_fraction():
    # two evaluation orders of the same step; measured worst gap is a
    # handful of ulps, pinned at 8 to leave room for platform libm
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(2000):
        params = _random_params(rng)
        pt = _random_point(rng)
        a = mu_x(params, pt)
        b = mu_x_closed(params, pt)
        worst = max(worst, ulp_gap(a.x, b.x), ulp_gap(a.y, b.y))
    assert worst <= 8.0


def test_inverse_round_trip():
    rng = np.random.default_rng(34)
    for _ in range(300):
        params = _random_params(rng)
        pt = _random_point(rng)
        back = mu_x_inv(params, mu_x(params, pt))
        assert abs(back.x - pt.x) <= 1e-12 * max(1.0, pt.x)
        assert abs(back.y - pt.y) <= 1e-12 * max(1.0, pt.y)


def test_log_step_tracks_direct_step():
    rng = np.random.default_rng(35)
    for _ in range(300):
        params = _random_params(rng)
        pt = _random_point(rng, 0.5, 3.0)
        a, b = mu_x_log(params, (math.log(pt.x), math.log(pt.y)))
        img = mu_x(params, pt)
        assert abs(a - math.log(img.x)) <= 1e-11 * max(1.0, abs(math.log(img.x)))
        assert abs(b - math.log(img.y)) <= 1e-11 * max(1.0, abs(math.log(img.y)))


def test_log_step_lies_within_log_2_above_its_tropicalization():
    # softplus(u) - max(0, u) lies in (0, log 2] and softplus is
    # increasing and 1-Lipschitz, so the first log coordinate exceeds
    # hat_mu1's by at most log 2, and the second exceeds hat_mu2's by
    # at most p log 2 carried over plus its own log 2
    rng = np.random.default_rng(51)
    log2 = math.log(2.0)
    worst = [0.0, 0.0]
    for _ in range(5000):
        params = Params(*np.exp(rng.uniform(-2.0, 2.0, 2)).tolist())
        a, b = (rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-3.0, 4.0, 2)).tolist()
        a1, b1 = mu_x_log(params, (a, b))
        pl = hat_mu2(params, hat_mu1(params, PointPL(a, b)))
        slack = 1e-12 * max(1.0, abs(a), abs(b))
        for k, (gap, top) in enumerate(((a1 - pl.s, log2), (b1 - pl.t, (1.0 + params.p) * log2))):
            assert -slack <= gap <= top + slack, (params, a, b, k, gap)
            worst[k] = max(worst[k], gap / top)
    # the draws come close to both bounds, so neither is loose by much
    assert worst[0] > 0.99 and worst[1] > 0.5


def test_log_step_survives_where_direct_overflows():
    params = Params(3.0, 3.0)
    a, b = 400.0, 400.0  # x = e^400 would overflow x^3 immediately
    for _ in range(50):
        a, b = mu_x_log(params, (a, b))
        assert math.isfinite(a) and math.isfinite(b)
    with pytest.raises(RangeError):
        mu_x_log(params, (math.inf, 0.0))


def test_range_error_on_overflow():
    params = Params(4.0, 4.0)
    with pytest.raises(RangeError):
        pt = PointPos(1e80, 1e80)
        for _ in range(10):
            pt = mu_x(params, pt)


def test_closed_step_reports_an_underflowed_denominator_as_range_exit():
    # x^p * y underflows to 0, so the closed form's y-denominator is 0
    params = Params(2.0, 1.0)
    pt = PointPos(1e-200, 1.0)
    with pytest.raises(RangeError, match="mu2_x left the representable positive quadrant"):
        mu_x(params, pt)
    with pytest.raises(RangeError, match="mu_x_closed left the representable positive quadrant"):
        mu_x_closed(params, pt)


def test_uv_maps_report_range_exits_as_range_errors():
    # valid inputs whose images overflow or underflow; the coordinate
    # changes report them as the (u, v) reflections do
    cases = [
        (mu1_uv, Params(2.0, 2.0), UVPoint(1e-300, 1e200)),
        (mu2_uv, Params(2.0, 2.0), UVPoint(1e200, 1e-200)),
        (to_uv, Params(2.0, 1.0), PointPos(1e-200, 1.0)),
        (to_uv, Params(2.0, 1.0), PointPos(1e200, 1.0)),
        (to_uv, Params(1.0, 1.0), PointPos(1.0, 1e-200)),
        (to_uv, Params(1.0, 1.0), PointPos(1.0, 1e200)),
        (from_uv, Params(0.5, 1.0), UVPoint(1e-300, 1.0)),
        (from_uv, Params(0.5, 1.0), UVPoint(1e300, 1.0)),
    ]
    for fn, params, pt in cases:
        with pytest.raises(RangeError, match=f"{fn.__name__} left the representable positive quadrant"):
            fn(params, pt)


def test_fixed_curve_helpers_report_range_exits_as_range_errors():
    # valid inputs whose values leave float range; V_dist used to return
    # -inf for a gap that is positive
    cases = [
        (fixed_curves, Params(2.0, 2.0), 1e200),
        (fixed_curves, Params(0.5, 400.0), 1e2),
        (H_dist, Params(3.0, 3.0), 1e200),
        (V_dist, Params(1.0, 4.0), 1e200),
    ]
    for fn, params, arg in cases:
        with pytest.raises(RangeError, match=f"{fn.__name__} left float range"):
            fn(params, arg)
    # in range, the values are those of the unchecked formulas
    assert fixed_curves(Params(2.0, 2.0), 1e100) == (math.sqrt(1.0 + 1e200), math.sqrt(1.0 + 1e200))
    assert H_dist(Params(3.0, 3.0), 1.0) == 2.0**1.5
    assert V_dist(Params(1.0, 4.0), 3.0) == 1.0 + 3.0 - (3.0**2 - 1.0) ** 0.5


def test_uv_change_of_coordinates_commutes():
    rng = np.random.default_rng(36)
    for _ in range(300):
        params = _random_params(rng, 0.5, 2.5)
        pt = _random_point(rng, 0.5, 2.5)
        lhs = to_uv(params, mu_x(params, pt))
        rhs = mu_uv(params, to_uv(params, pt))
        assert abs(lhs.u - rhs.u) <= 1e-10 * max(1.0, abs(lhs.u))
        assert abs(lhs.v - rhs.v) <= 1e-10 * max(1.0, abs(lhs.v))
        back = from_uv(params, to_uv(params, pt))
        assert abs(back.x - pt.x) <= 1e-12 * max(1.0, pt.x)
        assert abs(back.y - pt.y) <= 1e-12 * max(1.0, pt.y)


def test_uv_factor_maps_are_involutions():
    rng = np.random.default_rng(37)
    for _ in range(200):
        params = _random_params(rng, 0.5, 2.5)
        uv = UVPoint(float(rng.uniform(0.3, 4.0)), float(rng.uniform(0.3, 4.0)))
        for refl in (mu1_uv, mu2_uv):
            back = refl(params, refl(params, uv))
            assert abs(back.u - uv.u) <= 1e-11 * max(1.0, uv.u)
            assert abs(back.v - uv.v) <= 1e-11 * max(1.0, uv.v)


def test_region_examples():
    params = Params(3.0, 3.0)
    assert region_uv(params, UVPoint(1.0, 2.5)) is UVRegion.ABOVE_MU2_CURVE
    assert region_uv(params, UVPoint(10.0, 1.0)) is UVRegion.PAST_MU1_CURVE
    assert region_uv(params, UVPoint(2.0, 2.5)) is UVRegion.BETWEEN
    # v = 1 + u sits exactly on the second curve
    assert region_uv(Params(2.0, 2.0), UVPoint(1.0, 2.0)) is UVRegion.ON_MU2_CURVE
    # u = (1 + v^(q/2))^(p/2) exactly on the first
    assert region_uv(Params(2.0, 2.0), UVPoint(2.0, 1.0)) is UVRegion.ON_MU1_CURVE
    with pytest.raises(RegimeError):
        region_uv(Params(1.0, 1.0), UVPoint(1.0, 1.0))


def test_curve_gaps_degenerate_critical_case():
    params = Params(2.0, 2.0)
    for v in (1.0, 2.0, 7.5, 100.0):
        assert H_dist(params, v) == 2.0
    for u in (1.0, 3.0, 50.0):
        assert V_dist(params, u) == 2.0


def test_curve_gap_values():
    # p = q = 3 at height 1: (1 + 1)^(3/2) - 1 + 1 = 2 sqrt 2
    assert abs(H_dist(Params(3.0, 3.0), 1.0) - 2.0 * math.sqrt(2.0)) < 1e-15
    with pytest.raises(DomainError):
        H_dist(Params(3.0, 3.0), 0.5)
    with pytest.raises(DomainError, match="position must be >= 1"):
        V_dist(Params(3.0, 3.0), 0.5)
    with pytest.raises(RegimeError):
        V_dist(Params(1.0, 1.0), 2.0)
    with pytest.raises(RegimeError):
        H_dist(Params(1.0, 1.0), 2.0)


def test_curve_gap_monotone_in_the_guaranteed_ranges():
    # horizontal gap increases for p >= 2, vertical for q <= 2; outside
    # those ranges the corner singularity makes the gap dip first
    rng = np.random.default_rng(38)
    for _ in range(100):
        p = float(rng.uniform(2.0, 3.5))
        q = float(rng.uniform(4.3, 9.0)) / p
        params = Params(p, q)
        vs = np.sort(rng.uniform(1.0, 50.0, 10))
        gaps = [H_dist(params, float(v)) for v in vs]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        q2 = float(rng.uniform(0.5, 2.0))
        p2 = float(rng.uniform(4.3, 9.0)) / q2
        mirror = Params(p2, q2)
        us = np.sort(rng.uniform(1.0, 50.0, 10))
        vgaps = [V_dist(mirror, float(u)) for u in us]
        assert all(b > a for a, b in zip(vgaps, vgaps[1:]))


def test_curve_gap_dips_past_the_corner_outside_those_ranges():
    shallow = Params(0.5, 9.0)
    assert H_dist(shallow, 1.2) < H_dist(shallow, 1.0)
    steep = Params(1.0, 6.0)
    assert V_dist(steep, 1.1) < 2.0
    assert V_dist(steep, 1.0) == 2.0
    assert V_dist(steep, 50.0) > 2.0


def test_escape_moves_outward_above_second_curve():
    # from above the second curve a full step pushes u strictly out,
    # the engine of the escape argument
    rng = np.random.default_rng(39)
    for _ in range(100):
        p = float(rng.uniform(0.8, 2.5))
        q = float(rng.uniform(4.5, 9.0)) / p
        params = Params(p, q)
        uv = UVPoint(float(rng.uniform(1.0, 3.0)), float(rng.uniform(2.0, 6.0)))
        if region_uv(params, uv) is not UVRegion.ABOVE_MU2_CURVE:
            continue
        nxt = mu_uv(params, uv)
        assert nxt.u > uv.u


def test_symplectic_residual_small():
    rng = np.random.default_rng(40)
    for _ in range(200):
        params = _random_params(rng, 0.5, 3.0)
        pt = PointPos(float(np.exp(rng.uniform(-1.5, 1.5))), float(np.exp(rng.uniform(-1.5, 1.5))))
        assert symplectic_residual(params, pt) < 1e-6


def _exact_step(p, q, x, y):
    # mu_x in exact arithmetic: the first reflection, then the second
    x = (1 + y**q) / x
    return x, (1 + x**p) / y


def _exact_inverse_step(p, q, x, y):
    # mu_x_inv in exact arithmetic: the second reflection, then the first
    y = (1 + x**p) / y
    return (1 + y**q) / x, y


# integer pairs of finite type (pq <= 3), each with the number of
# composed steps after which every start returns
FINITE_TYPE = {(1, 1): 5, (1, 2): 3, (2, 1): 3, (1, 3): 4, (3, 1): 4}

# the invariants of mu_x at the integer pairs with pq = 4
AFFINE_INVARIANTS = {
    (2, 2): lambda x, y: (1 + x * x + y * y) / (x * y),
    (1, 4): lambda x, y: (1 + 2 * x + x * x + y**4) / (x * y * y),
    (4, 1): lambda x, y: (1 + x**4 + 2 * y + y * y) / (x * x * y),
}


def _rational_starts(rng, n):
    # n starts (x, y) of small positive rationals
    return [tuple(Fraction(int(a), int(b)) for a, b in rng.integers(1, 60, (2, 2))) for _ in range(n)]


def test_exact_orbits_of_finite_type_return_at_their_period():
    rng = np.random.default_rng(81)
    for (p, q), period in FINITE_TYPE.items():
        for start in _rational_starts(rng, 20):
            pt = start
            for k in range(1, period + 1):
                pt = _exact_step(p, q, *pt)
                assert (pt == start) == (k == period), (p, q, start, k)


def test_exact_orbits_at_pq_four_keep_their_invariant():
    rng = np.random.default_rng(82)
    for (p, q), invariant in AFFINE_INVARIANTS.items():
        for start in _rational_starts(rng, 20):
            pt = start
            value = invariant(*pt)
            for _ in range(10):
                pt = _exact_step(p, q, *pt)
                assert invariant(*pt) == value


# hyperbolic integer pairs (pq > 4).  From (1, 1) the orbit is the rank-2
# cluster recurrence z_{k+1} z_{k-1} = 1 + z_k^b, b alternating between q
# and p, so by the Laurent phenomenon (Fomin and Zelevinsky, Cluster
# algebras I, 2002) every iterate is a positive integer
HYPERBOLIC = ((1, 5), (5, 1), (2, 3), (3, 2), (1, 6), (6, 1), (3, 3))


def _growth_rate(p, q):
    # lambda, the larger eigenvalue of the linearization at pq > 4
    return (p * q - 2 + math.sqrt(p * q * (p * q - 4))) / 2


def test_hyperbolic_orbits_of_one_one_are_integers():
    for p, q in HYPERBOLIC:
        pt = (Fraction(1), Fraction(1))
        for k in range(7):
            pt = _exact_step(p, q, *pt)
            assert all(v.denominator == 1 and v > 1 for v in pt), (p, q, k)


def test_float_orbits_of_one_one_are_the_integers_below_two_to_the_53():
    # while every value a step makes, numerators included, stays below
    # 2^53, each operation is exact in floats (powers up to 4 multiply,
    # higher ones take libm's pow, exact on a representable result), so
    # the scalar recorder and the batched step give the integers bit for
    # bit.  That holds through 2 or 3 steps at these pairs
    for p, q in HYPERBOLIC:
        exact, (x, y) = [(1, 1)], (1, 1)
        while True:
            top, x = 1 + y**q, (1 + y**q) // x
            top, y = max(top, 1 + x**p), (1 + x**p) // y
            if top >= 2**53:
                break
            exact.append((x, y))
        steps = len(exact) - 1
        assert steps >= 2, (p, q)
        want = [[float(x), float(y)] for x, y in exact]
        orbit = iterate_orbit(Params(p, q), OrbitKind.RATIONAL, (1.0, 1.0), steps)
        assert orbit.points.tolist() == want, (p, q)
        step = _rational_step(np.array([float(p)]), np.array([float(q)]))
        rows = [[1.0, 1.0]]
        for _, xs, ys in _blocks(step, np.ones(1), np.ones(1), steps):
            rows += np.column_stack([xs[:, 0], ys[:, 0]]).tolist()
        assert rows == want, (p, q)


def test_exact_log_ratio_approaches_the_growth_rate():
    # the birational map grows doubly exponentially: log x_{k+1} / log x_k
    # tends to lambda(pq), the PL map's growth rate.  The exact integers
    # show it, their gap shrinking at every step from the second; at step
    # 7 it was at most 3.9e-5 (relative) over these pairs, 8.5e-10 at (3, 3)
    for p, q in HYPERBOLIC:
        logs, pt = [], (Fraction(1), Fraction(1))
        for _ in range(7):
            pt = _exact_step(p, q, *pt)
            # math.log takes an integer of any size, which str would refuse
            logs.append(math.log(pt[0].numerator))
        gaps = [abs(b / a / _growth_rate(p, q) - 1) for a, b in zip(logs, logs[1:])]
        assert all(later < earlier for earlier, later in zip(gaps[1:], gaps[2:])), (p, q, gaps)
        assert gaps[-1] <= 1e-4, (p, q, gaps)


class _Dual:
    # a rational value with its exact gradient in the start (x, y):
    # forward-mode differentiation over Fraction, enough for _exact_step
    def __init__(self, value, grad):
        self.value, self.grad = value, grad

    def __add__(self, other):  # other is an int
        return _Dual(self.value + other, self.grad)

    __radd__ = __add__

    def __mul__(self, other):
        grad = tuple(self.value * b + other.value * a for a, b in zip(self.grad, other.grad))
        return _Dual(self.value * other.value, grad)

    def __pow__(self, n):  # n is a positive int
        return self if n == 1 else self * self ** (n - 1)

    def __truediv__(self, other):
        value = self.value / other.value
        grad = tuple((a - value * b) / other.value for a, b in zip(self.grad, other.grad))
        return _Dual(value, grad)


def test_exact_jacobian_preserves_the_log_symplectic_form():
    # mu_x preserves dx dy / (x y): its exact Jacobian has det J x y =
    # x' y' at every point, for finite (pq < 4), critical (pq = 4) and
    # hyperbolic (pq > 4) integer pairs alike.  So the exact log Jacobian
    # has det 1, and it bounds symplectic_residual's differencing error
    # (step JAC_STEP) point by point: the largest entry gap seen here was
    # 4.8e-9, the largest residual 1.4e-8, and a residual is at most the
    # determinant's change under its point's gaps plus the rounding of
    # det2 and of the exact entries (2e-15 seen)
    rng = np.random.default_rng(84)
    for p in (1, 2, 3):
        for q in (1, 2, 4, 5):
            params = Params(p, q)
            for x, y in _rational_starts(rng, 50):
                nx, ny = _exact_step(p, q, _Dual(x, (1, 0)), _Dual(y, (0, 1)))
                (a, b), (c, d) = nx.grad, ny.grad
                assert (a * d - b * c) * x * y == nx.value * ny.value, (p, q, x, y)
                # d log x' / d log x = (x / x') dx' / dx, and so on
                exact = [[float(g * v / n.value) for g, v in zip(n.grad, (x, y))] for n in (nx, ny)]
                jac = _central_jacobian(partial(mu_x_log, params), math.log(x), math.log(y), JAC_STEP)
                (ga, gb), (gc, gd) = ([abs(j - e) for j, e in zip(*row)] for row in zip(jac, exact))
                assert max(ga, gb, gc, gd) <= 1e-8, (p, q, x, y)
                (a, b), (c, d) = exact
                bound = abs(d) * ga + abs(c) * gb + abs(b) * gc + abs(a) * gd + ga * gd + gb * gc
                residual = symplectic_residual(params, PointPos(float(x), float(y)))
                assert residual <= bound + 1e-12, (p, q, x, y, residual, bound)


def test_float_orbits_stay_within_measured_ulps_of_the_exact_orbits():
    # each float start is a rational, so its exact orbit is the oracle.
    # Over 600 starts per pair in [0.5, 2]^2 the largest gaps seen were
    # 6 ulps for one mu_x step, 26 over 20 steps of finite type and 103
    # over 10 steps at pq = 4, where the orbits grow and rounding
    # accumulates faster; each bound below leaves about half again.
    # One step of mu_x_closed or mu_x_inv came within 6 and 7 ulps over
    # 3000 starts per pair, and shares mu_x's bound of 8
    rng = np.random.default_rng(83)
    for (p, q) in (*FINITE_TYPE, *AFFINE_INVARIANTS):
        params = Params(p, q)
        steps, bound = (20, 40.0) if p * q < 4 else (10, 160.0)
        for x0, y0 in rng.uniform(0.5, 2.0, (50, 2)).tolist():
            exact = [(Fraction(x0), Fraction(y0))]
            for _ in range(steps):
                exact.append(_exact_step(p, q, *exact[-1]))
            back = _exact_inverse_step(p, q, *exact[0])
            for step, want in ((mu_x, exact[1]), (mu_x_closed, exact[1]), (mu_x_inv, back)):
                got = step(params, PointPos(x0, y0))
                assert max(map(ulp_gap, got.as_tuple(), map(float, want))) <= 8.0, step
            orbit = iterate_orbit(params, OrbitKind.RATIONAL, (x0, y0), steps)
            gaps = [ulp_gap(a, float(b)) for pt, want in zip(orbit.points.tolist(), exact)
                    for a, b in zip(pt, want)]  # fmt: skip
            assert max(gaps) <= bound, (p, q, x0, y0, max(gaps))
