"""Level-set sampling of the conserved piecewise quadratic."""
import math

import numpy as np
import pytest

from mutdyn.errors import DomainError
from mutdyn.levelset import levelset_points, levelset_residual
from mutdyn.params import Params
from mutdyn.tropical import PointPL, mu_c


def _endpoints(pieces):
    return [pc[0] for pc in pieces] + [pc[-1] for pc in pieces]


def _count_near(points, target, tol=1e-9):
    return sum(1 for s, t in points if math.hypot(s - target[0], t - target[1]) <= tol)


def test_piece_counts_by_regime():
    assert len(levelset_points(Params(1, 1), 1.0, 64)) == 2
    assert len(levelset_points(Params(2, 2), 4.0, 64)) == 3
    assert len(levelset_points(Params(3, 3), 3.0, 64)) == 3


def test_piece_lengths_match_samples():
    for samples in (2, 17, 128):
        pieces = levelset_points(Params(1, 2), 0.7, samples)
        assert all(len(pc) == samples for pc in pieces)


def test_residual_within_advertised_accuracy():
    rng = np.random.default_rng(81)
    configs = [(1, 1, 1.0), (2, 2, 4.0), (3, 3, 3.0), (1, 2, 0.7), (0.5, 0.5, 2.0),
               (3, 3, -3.0), (2, 3, -2.0),
               # points near radius 1e155, where s t overflows though phi is 1
               (1e-310, 1e-310, 1.0)]
    for _ in range(10):
        p, q = rng.uniform(0.3, 3.0, size=2)
        configs.append((float(p), float(q), float(rng.uniform(0.2, 5.0))))
    for p, q, c in configs:
        params = Params(p, q)
        pieces = levelset_points(params, c, 64)
        assert pieces, f"no pieces for p={p} q={q} c={c}"
        assert levelset_residual(params, pieces, c) < 1e-9


def test_residual_detects_wrong_level():
    params = Params(1, 1)
    pieces = levelset_points(params, 1.0, 32)
    assert levelset_residual(params, pieces, 2.0) > 0.4


def test_residual_is_relative_to_the_level_size():
    params = Params(1, 1)
    pieces = levelset_points(params, 1.0, 32)
    assert levelset_residual(params, pieces, -5.0) == pytest.approx(1.2)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            levelset_residual(params, pieces, bad)


def test_near_critical_pieces_stay_within_truncation():
    # just above the critical product the second-quadrant arc is kept and
    # the unbounded branches stop at 8 times the axis scale
    for params in (Params(1, 4.0001), Params(2, 2.0001), Params(1, 4.1)):
        for level in (1.0, 4.0):
            pieces = levelset_points(params, level, 64)
            assert len(pieces) == 3
            second = [pc for pc in pieces if all(s <= 0.0 and t >= 0.0 for s, t in pc)]
            assert len(second) == 1
            cap = 8.0 * math.sqrt(level * max(1.0 / params.p, 1.0 / params.q))
            reach = max(math.hypot(s, t) for pc in pieces for s, t in pc)
            assert reach <= cap * (1.0 + 1e-9)
            assert levelset_residual(params, pieces, level) < 1e-9


def test_levels_are_invariant_and_negative_levels_sit_in_fourth_quadrant():
    for p, q, c in ((3, 3, 3.0), (3, 3, -3.0), (2, 3, -2.0), (1, 2, 0.7), (2.6, 1.9, 1.3)):
        params = Params(p, q)
        pieces = levelset_points(params, c, 64)
        images = [[mu_c(params, PointPL(s, t)).as_tuple() for s, t in pc] for pc in pieces]
        assert levelset_residual(params, images, c) < 1e-9
        if c < 0.0:
            assert len(pieces) == 1
            assert all(s > 0.0 and t < 0.0 for s, t in pieces[0])


def test_far_negative_level_is_drawn_from_its_nearest_radius():
    # phi is barely negative on the unit circle (its minimum m is about
    # -2.5e-4), so the branch stays beyond radius sqrt(2 / |m|) ~ 89,
    # far from any axis intercept; its truncation scale is that radius
    params = Params(0.001, 5000)
    pieces = levelset_points(params, -2.0, 8)
    assert len(pieces) == 1
    assert all(s > 0.0 and t < 0.0 for s, t in pieces[0])
    assert min(math.hypot(s, t) for s, t in pieces[0]) > 89.0
    assert levelset_residual(params, pieces, -2.0) < 1e-9


def test_adjacent_pieces_share_axis_endpoints():
    # each axis crossing is hit by exactly two pieces; truncation ends of
    # unbounded branches stay unpaired
    cases = [
        (Params(1, 1), 1.0, (0.0, 1.0), (-1.0, 0.0)),
        (Params(2, 2), 4.0, (0.0, math.sqrt(2.0)), (-math.sqrt(2.0), 0.0)),
        (Params(3, 3), 3.0, (0.0, 1.0), (-1.0, 0.0)),
    ]
    for params, level, top, left in cases:
        ends = _endpoints(levelset_points(params, level, 64))
        assert _count_near(ends, top) == 2
        assert _count_near(ends, left) == 2


def test_sampling_is_deterministic():
    a = levelset_points(Params(2.6, 1.9), 1.3, 48)
    b = levelset_points(Params(2.6, 1.9), 1.3, 48)
    assert a == b


def test_validation():
    params = Params(1, 1)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            levelset_points(params, bad)
    with pytest.raises(DomainError):
        levelset_points(params, 1.0, samples_per_piece=1)
    levelset_points(params, 1.0, samples_per_piece=2)
