import math
import sys
import struct

import numpy as np
import pytest

from mutdyn.floatops import _power, close_rel, det2, fpow, softplus, ulp_gap


def test_close_rel():
    assert close_rel(1.0, 1.0 + 1e-13, 1e-12)
    assert not close_rel(1.0, 1.0 + 1e-11, 1e-12)
    # scale floor of 1 keeps the test meaningful near zero
    assert close_rel(0.0, 1e-13, 1e-12)
    assert close_rel(2e15, 2e15 + 1000.0, 1e-12)


def test_ulp_gap():
    assert ulp_gap(1.0, 1.0) == 0.0
    assert ulp_gap(1.0, math.nextafter(1.0, 2.0)) == 1.0
    assert ulp_gap(1.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0)) == 2.0


def test_fpow_matches_pow():
    rng = np.random.default_rng(21)
    for _ in range(500):
        base = float(rng.uniform(0.01, 50.0))
        expo = float(rng.uniform(-3.0, 3.0))
        assert fpow(base, expo) == base**expo


def test_fpow_integer_exponents_exact_products():
    # small integer exponents go through repeated multiplication
    assert fpow(3.0, 2.0) == 9.0
    assert fpow(2.0, 3.0) == 8.0
    assert fpow(10.0, 1.0) == 10.0
    assert fpow(7.0, 0.0) == 1.0
    assert fpow(2.0, -2.0) == 0.25
    x = 1.7
    assert fpow(x, 2.0) == x * x
    assert fpow(x, 3.0) == x * x * x


def test_fpow_overflow_is_inf():
    assert fpow(1e300, 2.0) == math.inf
    assert fpow(10.0, 1000.0) == math.inf


def _fpow_rule(base, expo):
    # fpow's exponent rule decided on every call: repeated multiplication
    # for integers |n| <= 4 (reciprocal first when negative), else libm
    # pow with overflow mapped to inf
    n = int(expo) if -4.0 <= expo <= 4.0 else None
    if n is not None and expo == n:
        if n < 0:
            base = 1.0 / base
            n = -n
        r = 1.0
        for _ in range(n):
            r *= base
        return r
    try:
        return base**expo
    except OverflowError:
        return math.inf


def _bits(v):
    return struct.pack("<d", v)


def test_power_helper_follows_fpow_rule_bit_for_bit():
    rng = np.random.default_rng(22)
    expos = [float(n) for n in range(-5, 6)]
    expos += [4.5, -4.5, 0.5, math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0)]
    expos += [float(e) for e in rng.uniform(-6.0, 6.0, 40)]
    bases = [1e-300, 1.0, 50.0, 1e200]
    bases += [float(b) for b in rng.uniform(0.01, 50.0, 200)]
    bases += [float(b) for b in 10.0 ** rng.uniform(-300.0, 300.0, 200)]
    for expo in expos:
        power = _power(expo)
        for base in bases:
            want = _bits(_fpow_rule(base, expo))
            assert _bits(power(base)) == want, (base, expo)
            assert _bits(fpow(base, expo)) == want, (base, expo)


def test_fpow_result_keeps_the_exponents_type():
    # equal exponents of different types must not share one callable
    assert type(fpow(1.7, 2.5)) is float
    assert type(fpow(1.7, np.float64(2.5))) is np.float64
    assert type(fpow(1.7, 2.5)) is float


def test_power_helper_maps_pow_overflow_to_inf():
    # exponents off the multiplication branch, where ** itself raises
    for base, expo in ((1e200, 4.5), (1e200, 5.0), (1e-300, -5.0), (50.0, 1000.5)):
        with pytest.raises(OverflowError):
            base**expo
        assert _power(expo)(base) == math.inf
        assert fpow(base, expo) == math.inf
    # the multiplication branch overflows to inf on its own
    assert _power(4.0)(1e200) == math.inf
    assert _power(-4.0)(1e-300) == math.inf


def _libm_pow(base, expo):
    # Python's float ** is the libm pow; it raises on overflow
    try:
        return base**expo
    except OverflowError:
        return math.inf


def test_float_power_rounds_as_python_pow_bit_for_bit():
    # the batched rational scan raises columns of bases with
    # np.float_power on the premise that its loop is the libm pow of a
    # float's **; np.power may run numpy's own SIMD loops instead
    rng = np.random.default_rng(31)
    rows, cols = 300, 80
    bases = rng.uniform(1.0, 10.0, (rows, cols)) * 10.0 ** rng.integers(-324, 308, (rows, cols))
    bases[0, :8] = (5e-324, 1e-310, math.nextafter(1.0, 0.0), 1.0, 1.5, 1e300, 1e308, 1.79e308)
    fixed = [0.01, 0.5, 1.5, 5.0, 7.0, 99.5, 100.0]
    expos = np.concatenate([fixed, rng.uniform(0.01, 100.0, cols - len(fixed))])
    expos[7:27] = rng.uniform(0.2, 4.5, 20)  # the scanned range of p and q
    want = np.array(
        [[_libm_pow(b, e) for b, e in zip(row, expos.tolist())] for row in bases.tolist()]
    )
    assert 0 < np.isinf(want).sum() < want.size
    assert ((want > 0.0) & (want < 2.3e-308)).any()  # subnormal results
    with np.errstate(over="ignore", under="ignore"):
        # 2-D with a column of exponents broadcast, as the scan steps it
        assert np.float_power(bases, expos).tobytes() == want.tobytes()
        # one row at a time, and strided in either direction
        for i in range(0, rows, 7):
            assert np.float_power(bases[i], expos).tobytes() == want[i].tobytes()
        got = np.float_power(bases[::3, ::2], expos[::2])
        assert got.tobytes() == np.ascontiguousarray(want[::3, ::2]).tobytes()
        got = np.float_power(bases.T, expos[:, None])
        assert got.tobytes() == np.ascontiguousarray(want.T).tobytes()


def test_log_and_arctan2_of_slices_have_the_whole_arrays_bits():
    # the exports evaluate log radius and the lifted angle on slices of an
    # orbit's points, on the premise that np.log and np.arctan2 give each
    # element the bits they give it within the whole array, whatever SIMD
    # lanes and tails the slice falls into
    rng = np.random.default_rng(53)
    n = 20011
    points = rng.uniform(-10.0, 10.0, (n, 2)) * 10.0 ** rng.integers(-320, 300, (n, 2))
    points[:7] = [(0.0, 0.0), (-0.0, 1.0), (1.0, -0.0), (math.inf, 1.0), (1.0, -math.inf),
                  (5e-324, -5e-324), (math.nan, 2.0)]  # fmt: skip
    s, t = points.T
    radius = np.maximum(np.abs(s), np.abs(t))
    with np.errstate(divide="ignore"):
        whole = np.log(radius), np.arctan2(t, s)
        for size in (4096, 1000, 7, 1):
            for lo in (0, 1, 3, 4097, n - size - 5):
                rows = slice(lo, lo + size)
                assert np.log(radius[rows]).tobytes() == whole[0][rows].tobytes()
                assert np.arctan2(t[rows], s[rows]).tobytes() == whole[1][rows].tobytes()


def test_softplus_oracle():
    zs = np.concatenate(
        [np.linspace(-40.0, 40.0, 401), np.array([-745.0, -1000.0, 700.0, 1e4])]
    )
    for z in zs:
        ref = float(np.logaddexp(0.0, z))
        got = softplus(float(z))
        assert math.isfinite(got)
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))
    # exactness in the far tails
    assert softplus(1e4) == 1e4
    assert softplus(-1e4) == 0.0


def test_det2():
    assert det2(((1.0, 2.0), (3.0, 4.0))) == -2.0
    assert det2(((2.0, 0.0), (0.0, 0.5))) == 1.0


def test_the_max_over_a_divisor_of_at_least_one_is_the_max_of_the_quotients():
    # the drift pass divides each column's largest wander by d = max(1,
    # |phi_0|) once: correctly rounded division by d >= 1 is monotone, so
    # the quotient of the max has the bits of the max of the quotients,
    # and x / d is finite exactly where x is
    rng = np.random.default_rng(12)
    x = np.abs(rng.standard_normal((100, 400))) * 10.0 ** rng.uniform(-320.0, 308.0, (100, 400))
    # runs of consecutive floats, whose quotients tie after rounding
    x[:, :40] = x[0, :40] + np.arange(100.0)[:, None] * np.spacing(x[0, :40])
    x[0, 40:60] = [0.0, 5e-324, sys.float_info.max, math.inf, math.nan] * 4
    d = np.concatenate([np.ones(100), 1.0 + rng.random(100), 10.0 ** rng.uniform(0.0, 308.0, 200)])
    d[-1] = sys.float_info.max
    finite = np.isfinite(x).all(axis=0)
    assert (x[:, finite].max(axis=0) / d[finite]).tobytes() == (x[:, finite] / d[finite]).max(axis=0).tobytes()
    assert np.array_equal(np.isfinite(x / d), np.isfinite(x))


def test_a_product_less_a_value_is_its_negation_plus_the_product():
    # the array PL step takes q * t - s and p * s + t where the scalar
    # loop reads -s + q * t and t + p * s: in IEEE arithmetic x - y is
    # x + (-y) and addition commutes, signed zeros included, for numpy
    # arrays and for Python floats alike
    values = [0.0, -0.0, 5e-324, -5e-324, 0.1, -3.7, 1.0, 1e308, -1e308, math.inf, -math.inf, math.nan]
    q, t, s = (a.ravel() for a in np.meshgrid(values, values, values, indexing="ij"))
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = [(q * t - s, -s + q * t), (q * t + s, s + q * t)]
    pairs += [
        tuple(np.array([f(*v) for v in zip(q.tolist(), t.tolist(), s.tolist())]) for f in forms)
        for forms in (
            (lambda q, t, s: q * t - s, lambda q, t, s: -s + q * t),
            (lambda q, t, s: q * t + s, lambda q, t, s: s + q * t),
        )
    ]
    for a, b in pairs:
        nan = np.isnan(a)
        assert np.array_equal(nan, np.isnan(b))
        assert a[~nan].tobytes() == b[~nan].tobytes()
        assert np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan]))
    assert np.signbit(pairs[0][0]).any() and (pairs[0][0] == 0.0).any()
