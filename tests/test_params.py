import math

import numpy as np
import pytest

from mutdyn.errors import DomainError, RangeError, RegimeError
from mutdyn.floatops import EQ_TOL
from mutdyn.params import (
    Params,
    Regime,
    classify_regime,
    detect_m,
    kappa_nu,
    theta_of,
)


def test_params_validation():
    Params(0.5, 3.0)
    for bad in ((0.0, 1.0), (1.0, -2.0), (math.inf, 1.0), (1.0, math.nan), (None, 1),
                (1.0, "a"), ([1.0], 1.0), (1j, 1.0), (10**400, 1.0)):  # fmt: skip
        with pytest.raises(DomainError):
            Params(*bad)


def test_params_coerces_to_float():
    pr = Params(1, 2)
    assert isinstance(pr.p, float) and isinstance(pr.q, float)
    assert pr.pq == 2.0
    for p in (3, 3.0, np.float64(3.0), np.int64(3)):
        pr = Params(p, p)
        assert type(pr.p) is float and type(pr.q) is float and pr.p == pr.q == 3.0


def test_classify_regime_partition():
    assert classify_regime(Params(1.0, 3.9)) is Regime.SUBCRITICAL
    assert classify_regime(Params(2.0, 2.0)) is Regime.CRITICAL
    assert classify_regime(Params(3.0, 3.0)) is Regime.SUPERCRITICAL
    # the band is EQ_TOL wide, products a hair off 4 still critical
    assert classify_regime(Params(2.0, 2.0 + 1e-13)) is Regime.CRITICAL
    assert classify_regime(Params(2.0, 2.0 + 1e-11)) is Regime.SUPERCRITICAL


def test_theta_defining_identity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        pq = float(rng.uniform(0.5, 3.99))
        p = float(rng.uniform(0.3, 2.0))
        th = theta_of(Params(p, pq / p))
        assert 0.0 < th < math.pi / 2.0
        back = 4.0 * math.cos(th) ** 2
        assert abs(back - pq) <= 4.0 * 4.0 * np.finfo(float).eps
    with pytest.raises(RegimeError):
        theta_of(Params(2.0, 2.0))
    with pytest.raises(RegimeError):
        theta_of(Params(3.0, 3.0))


def test_theta_roundtrip_conditioning():
    # the inverse map pq -> theta loses figures as pq -> 0 where the
    # derivative of 4 cos^2 vanishes; only the relative error of the
    # product round trip is guaranteed tight, and only at moderate pq
    rng = np.random.default_rng(12)
    for _ in range(500):
        pq = float(rng.uniform(1.0, 3.9))
        th = theta_of(Params(1.0, pq))
        assert abs(4.0 * math.cos(th) ** 2 - pq) <= 1e-14 * pq


def test_kappa_nu_values():
    kappa, nu = kappa_nu(Params(4.0, 1.0))
    assert kappa == 2.0
    assert nu == 2.0
    kappa, nu = kappa_nu(Params(3.0, 3.0))
    assert kappa == 3.0
    assert nu == 1.0
    # the product overflows, kappa does not
    kappa, nu = kappa_nu(Params(1e200, 1e200))
    assert kappa == 1e200
    assert nu == 1.0


def test_detect_m_table():
    for m in range(3, 31):
        q = 4.0 * math.cos(math.pi / m) ** 2
        assert detect_m(Params(1.0, q)) == m
        # split the product across both exponents
        assert detect_m(Params(q / 2.0, 2.0)) == m


def test_detect_m_rejects_generic_and_escape():
    assert detect_m(Params(1.0, 1.05)) is None  # between m=3 and m=4
    assert detect_m(Params(2.0, 2.0)) is None
    assert detect_m(Params(3.0, 3.0)) is None
    assert detect_m(Params(1.0, 3.99999), cap=100) is None


def test_detect_m_checks_its_cap_on_both_sides_of_the_critical_product():
    # the cap is checked before the early return at pq >= 4, so a bad cap
    # fails the same way whatever the product
    for params in (Params(1.0, 1.0), Params(3.0, 3.0)):
        for bad in ("10", None, 2.5, math.nan, -1):
            with pytest.raises(DomainError):
                detect_m(params, cap=bad)
        detect_m(params, cap=3.0)


def test_detect_m_brute_force_oracle():
    # independent check: scan all m up to a bound instead of inverting
    cand_m = np.arange(3, 2001)
    refs = 4.0 * np.cos(np.pi / cand_m) ** 2
    rng = np.random.default_rng(13)
    for _ in range(200):
        pq = float(rng.uniform(0.1, 3.999))
        params = Params(1.0, pq)
        hits = np.nonzero(
            np.abs(pq - refs) <= EQ_TOL * np.maximum(1.0, np.maximum(pq, refs))
        )[0]
        expect = int(cand_m[hits[0]]) if len(hits) else None
        assert detect_m(params, cap=2000) == expect


def test_kappa_nu_raises_where_nu_leaves_float_range():
    # p / q overflows and so does its root; the product underflows, kappa
    # does not
    with pytest.raises(RangeError):
        kappa_nu(Params(1e300, 1e-320))
    kappa, nu = kappa_nu(Params(1e-320, 1e300))
    assert kappa == math.sqrt(1e-320) * 1e150 and 0.0 < nu < 1e-300
