"""Extended exchange matrices: validation, mutation, closures."""
import itertools
import math
from collections import deque
from functools import partial
from fractions import Fraction

import numpy as np
import pytest

from mutdyn.acceptance import _CLASS_SIZES
from mutdyn.errors import DomainError, RangeError
from mutdyn.exchange import ExtendedExchangeMatrix, mutate, mutation_class
from mutdyn.floatops import EQ_TOL, close_rel
from mutdyn.params import Params
from mutdyn.tropical import PointPL, _finite_point, detect_period, mu1_c, mu2_c, mu_c_inv


def _q_for_m(m: int) -> float:
    return 4.0 * math.cos(math.pi / m) ** 2


def test_minimal_matrix_and_extra_rows():
    mat = ExtendedExchangeMatrix(((0, 1), (-1, 0)))
    assert mat.entries == ((0.0, 1.0), (-1.0, 0.0))
    assert mat.extra_rows == ()
    ext = ExtendedExchangeMatrix(((0, 2), (-1, 0), (3, -4), (0.5, 0.5)))
    assert ext.extra_rows == ((3.0, -4.0), (0.5, 0.5))


def test_entries_coerced_to_float_tuples():
    mat = ExtendedExchangeMatrix([[0, 1], [-1, 0], [2, 3]])
    assert isinstance(mat.entries, tuple)
    assert all(isinstance(v, float) for row in mat.entries for v in row)


def test_rejects_nonzero_diagonal():
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix(((1e-300, 1), (-1, 0)))
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix(((0, 1), (-1, 2)))


def test_rejects_same_sign_off_diagonal():
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix(((0, 1), (1, 0)))
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix(((0, -2), (-3, 0)))
    # the product underflows to 0.0, the signs still agree
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix(((0, 1e-200), (1e-200, 0)))


def test_allows_vanishing_off_diagonal():
    # only the product is constrained, so a single zero passes too
    ExtendedExchangeMatrix(((0, 0), (0, 0)))
    ExtendedExchangeMatrix(((0, 1), (0, 0)))


def test_rejects_wrong_shape():
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix((((0, 1),)))
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix(((0, 1, 2), (-1, 0, 0)))
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix(((0, 1), (-1, 0), (1, 2, 3)))


def test_rejects_non_finite_entries():
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix(((0, math.inf), (-1, 0)))
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix(((0, 1), (-1, 0), (math.nan, 0)))


def test_rejects_non_real_rows():
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix(((0, "one"), (-1, 0)))
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix(((0, 1j), (-1, 0)))
    with pytest.raises(DomainError):
        ExtendedExchangeMatrix((5, (-1, 0)))


def test_from_exponents_forms():
    plain = ExtendedExchangeMatrix.from_exponents(1.5, 0.25, rows=((1, 2),))
    assert plain.entries == ((0.0, 1.5), (-0.25, 0.0), (1.0, 2.0))
    neg = ExtendedExchangeMatrix.from_exponents(1.5, 0.25, rows=((1, 2),), negated=True)
    assert neg.entries == ((0.0, -1.5), (0.25, 0.0), (1.0, 2.0))


def test_exchange_product_value_and_invariance():
    rng = np.random.default_rng(61)
    for _ in range(50):
        p, q = rng.uniform(0.3, 3.0, size=2)
        rows = tuple(map(tuple, rng.normal(scale=2.0, size=(2, 2))))
        mat = ExtendedExchangeMatrix.from_exponents(p, q, rows=rows)
        assert mat.exchange_product == abs(p * q)
        for _ in range(6):
            k = int(rng.integers(1, 3))
            mat = mutate(mat, k)
            assert mat.exchange_product == abs(p * q)


def test_displayed_single_mutation():
    mat = ExtendedExchangeMatrix(((0, 1), (-1, 0), (1, 0)))
    assert mutate(mat, 1).entries == ((0.0, -1.0), (1.0, 0.0), (-1.0, 1.0))
    # negative first coordinate contributes nothing beyond the sign flip
    other = ExtendedExchangeMatrix(((0, 1), (-1, 0), (-2, 5)))
    assert mutate(other, 1).entries[2] == (2.0, 5.0)


def test_mutate_is_involution_integer_exact():
    mat = ExtendedExchangeMatrix(((0, 2), (-3, 0), (1, -4), (2, 5)))
    for k in (1, 2):
        assert mutate(mutate(mat, k), k).entries == mat.entries


def test_mutate_is_involution_random_tolerance():
    rng = np.random.default_rng(62)
    for _ in range(100):
        p, q = rng.uniform(0.3, 3.0, size=2)
        rows = tuple(map(tuple, rng.normal(scale=2.0, size=(3, 2))))
        mat = ExtendedExchangeMatrix.from_exponents(p, q, rows=rows)
        for k in (1, 2):
            back = mutate(mutate(mat, k), k)
            for ra, rb in zip(mat.entries, back.entries):
                for va, vb in zip(ra, rb):
                    assert abs(va - vb) <= 1e-12 * max(1.0, abs(va), abs(vb))


def test_invalid_direction_raises():
    mat = ExtendedExchangeMatrix(((0, 1), (-1, 0)))
    for k in (0, 3, -1, "1"):
        with pytest.raises(DomainError):
            mutate(mat, k)


def test_direction_one_matches_first_factor_map():
    rng = np.random.default_rng(63)
    for _ in range(100):
        p, q = rng.uniform(0.3, 3.0, size=2)
        s, t = rng.uniform(-4.0, 4.0, size=2)
        params = Params(p, q)
        plain = ExtendedExchangeMatrix.from_exponents(p, q, rows=((s, t),))
        negated = ExtendedExchangeMatrix.from_exponents(p, q, rows=((s, t),), negated=True)
        img = mutate(plain, 1)
        assert img.entries[:2] == negated.entries[:2]
        assert img.entries[2] == mu1_c(params, PointPL(s, t)).as_tuple()


def test_direction_two_matches_second_factor_map():
    rng = np.random.default_rng(64)
    for _ in range(100):
        p, q = rng.uniform(0.3, 3.0, size=2)
        s, t = rng.uniform(-4.0, 4.0, size=2)
        params = Params(p, q)
        plain = ExtendedExchangeMatrix.from_exponents(p, q, rows=((s, t),))
        negated = ExtendedExchangeMatrix.from_exponents(p, q, rows=((s, t),), negated=True)
        img = mutate(negated, 2)
        assert img.entries[:2] == plain.entries[:2]
        assert img.entries[2] == mu2_c(params, PointPL(s, t)).as_tuple()


def test_class_of_five_periodic_seed():
    seed = ExtendedExchangeMatrix.from_exponents(1.0, 1.0, rows=((1.0, 0.0),))
    res = mutation_class(seed)
    assert res.complete
    assert res.size == 10
    assert res.matrices[0].entries == seed.entries
    assert all(m.exchange_product == 1.0 for m in res.matrices)


def test_class_sizes_at_periodic_products():
    # twice the row's PL period in each case: the closure tracks the
    # planar orbit together with the form flip
    expected = {3: 10, 4: 6, 5: 14, 6: 8, 7: 18, 8: 10}
    rng = np.random.default_rng(30)
    for m in range(3, 31):
        params = Params(1.0, _q_for_m(m))
        sizes = []
        for row in [(1.0, 1.0), *rng.uniform(-3.0, 3.0, (3, 2)).tolist()]:
            seed = ExtendedExchangeMatrix.from_exponents(params.p, params.q, rows=(row,))
            res = mutation_class(seed, cap=4000)
            period = detect_period(params, PointPL(*row), 4 * m)
            assert res.complete, f"m={m}, row {row} did not close"
            assert res.size == 2 * period, f"m={m}, row {row}: {res.size} != 2 x {period}"
            sizes.append(res.size)
        if m in expected:
            assert sizes[0] == expected[m], f"m={m}, row (1, 1): {sizes[0]} != {expected[m]}"


def test_class_size_at_every_rational_angle():
    # at pq = 4 cos^2(k pi / m), gcd(k, m) = 1 and 2k < m, the row (1, 1)
    # closes with twice its PL period (m + 2k) / gcd(m, 2) members
    for m in range(3, 25):
        for k in (k for k in range(1, (m + 1) // 2) if math.gcd(k, m) == 1):
            pq = 4.0 * math.cos(k * math.pi / m) ** 2
            for p, q in ((math.sqrt(pq), math.sqrt(pq)), (1.0, pq)):
                res = mutation_class(ExtendedExchangeMatrix.from_exponents(p, q, rows=((1.0, 1.0),)))
                assert res.complete and res.size == 2 * (m + 2 * k) // math.gcd(m, 2), (m, k, p, res.size)


def test_cap_boundary():
    seed = ExtendedExchangeMatrix.from_exponents(1.0, 1.0, rows=((1.0, 0.0),))
    exact = mutation_class(seed, cap=10)
    assert exact.complete and exact.size == 10
    short = mutation_class(seed, cap=9)
    assert not short.complete and short.size == 9
    lone = mutation_class(seed, cap=1)
    assert not lone.complete and lone.size == 1
    with pytest.raises(DomainError):
        mutation_class(seed, cap=0)


def test_growing_class_hits_cap():
    seed = ExtendedExchangeMatrix.from_exponents(1.0, 5.0, rows=((1.0, 1.0),))
    res = mutation_class(seed, cap=300)
    assert not res.complete
    assert res.size == 300


def test_discovery_order_deterministic():
    seed = ExtendedExchangeMatrix.from_exponents(1.0, _q_for_m(7), rows=((1.0, 1.0),))
    a = mutation_class(seed, cap=100)
    b = mutation_class(seed, cap=100)
    assert [m.entries for m in a.matrices] == [m.entries for m in b.matrices]


def test_entries_near_float_range_keep_their_class():
    # entries within a factor 200 of the largest float stay in range
    # along the whole cycle, and the class is the one of the unit row
    for row in ((1e303, 0.0), (1e303, -1e303)):
        seed = ExtendedExchangeMatrix.from_exponents(1.0, 1.0, rows=(row,))
        result = mutation_class(seed)
        assert result.complete and result.size == 10


def test_rounded_round_trips_are_not_members():
    # mu1 twice sends the row (1e303, 1) to (1e303, 0): the 1 is lost to
    # rounding, so the round trip differs from the seed by more than
    # EQ_TOL, yet the class is still the seed's cycle of 10
    seed = ExtendedExchangeMatrix.from_exponents(1.0, 1.0, rows=((1e303, 1.0),))
    assert mutate(mutate(seed, 1), 1).extra_rows == ((1e303, 0.0),)
    result = mutation_class(seed)
    assert result.complete and result.size == 10


def test_mutation_leaving_float_range_raises_range_error():
    seed = ExtendedExchangeMatrix.from_exponents(1e200, 1e200, rows=((1.0, 1.0),))
    # the row becomes (-1, 1e200); the next step adds 1e200 * 1e200
    once = mutate(seed, 1)
    assert once.extra_rows == ((-1.0, 1e200),)
    with pytest.raises(RangeError, match="direction 2"):
        mutate(once, 2)
    # the class walk ends each chain where it leaves float range, after
    # 1 and 3 mutations, and reports the class incomplete
    result = mutation_class(seed)
    assert not result.complete and result.size == 5
    assert result.matrices[1] == once


def _per_entry_mutate(rows, k):
    # the mutation rule in floats, entry by entry over any number of
    # columns: -b_ij in row or column k, else b_ij plus sign(b_ik) times
    # b_ik b_kj where that product is positive (left as is otherwise,
    # so a -0.0 keeps its sign)
    kk = k - 1
    out = []
    for i, row in enumerate(rows):
        new = []
        for j, v in enumerate(row):
            prod = row[kk] * rows[kk][j]
            if kk in (i, j):
                new.append(-v)
            else:
                new.append(v + math.copysign(prod, row[kk]) if prod > 0.0 else v)
        out.append(tuple(new))
    return tuple(out)


def test_mutate_equals_the_per_entry_rule_bit_for_bit():
    rng = np.random.default_rng(91)
    special = (0.0, -0.0, 1e200, -1e200, 1.7e308, -1.7e308, 5e-324, -5e-324)

    def entry():
        if rng.random() < 0.3:
            return float(rng.choice(special))
        return float(rng.uniform(-5.0, 5.0) * 10.0 ** rng.integers(-3, 4))

    seen = {"exits": 0, "zero blocks": 0, "signed zeros": 0}
    for _ in range(4000):
        b, c = entry(), entry()
        if (b > 0.0) == (c > 0.0) and b != 0.0 != c:
            c = -c
        if rng.random() < 0.15:
            b, c = float(rng.choice((0.0, -0.0))), float(rng.choice((0.0, -0.0)))
        top = ((float(rng.choice((0.0, -0.0))), b), (c, float(rng.choice((0.0, -0.0)))))
        rows = top + tuple((entry(), entry()) for _ in range(rng.integers(0, 4)))
        mat = ExtendedExchangeMatrix(rows)
        seen["zero blocks"] += b == c == 0.0
        seen["signed zeros"] += any(math.copysign(1.0, v) < 0.0 for r in rows for v in r if v == 0.0)
        for k in (1, 2):
            want = _per_entry_mutate(mat.entries, k)
            if all(math.isfinite(v) for row in want for v in row):
                assert _bits(mutate(mat, k)) == tuple(v.hex() for row in want for v in row)
            else:
                seen["exits"] += 1
                with pytest.raises(RangeError, match=f"direction {k}"):
                    mutate(mat, k)
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("p, q, row, size", [
    (0.0, 0.0, (0.0, 1.0), 2),
    (0.0, 0.0, (1.0, 0.0), 2),
    (0.0, 0.0, (1.0, 1.0), 4),
    (0.0, 0.0, (0.0, 0.0), 1),
    (1.0, 1.0, (0.0, 0.0), 2),
])  # fmt: skip
def test_zero_blocks_have_fixed_points(p, q, row, size):
    # a direction k fixes every matrix whose column k is zero, so a chain
    # can end at a fixed point; at p = q = 0, row (0, 1), mu1 fixes the
    # seed itself and the class is the seed and its mu2 image
    seed = ExtendedExchangeMatrix.from_exponents(p, q, rows=(row,))
    result = mutation_class(seed)
    assert result.complete and result.size == size
    assert result.matrices[0] == seed


def _chain(mat, k):
    # the members mutate(., k), then the other direction, alternating,
    # until a mutation leaves float range
    out = []
    while True:
        try:
            mat = mutate(mat, k)
        except RangeError:
            return out
        out.append(mat)
        k = 3 - k


def _bits(mat):
    return tuple(v.hex() for row in mat.entries for v in row)


def test_hyperbolic_class_is_the_seed_and_its_two_chains():
    seed = ExtendedExchangeMatrix.from_exponents(1.0, 5.0, rows=((1.0, 1.0),))
    first, second = _chain(seed, 1), _chain(seed, 2)
    assert (len(first), len(second)) == (1471, 1474)
    pairs = itertools.zip_longest(first, second)
    interleaved = [m for pair in pairs for m in pair if m is not None]
    result = mutation_class(seed, cap=10**4)
    assert not result.complete and result.size == 2946
    assert [_bits(m) for m in result.matrices] == [_bits(m) for m in [seed] + interleaved]


def _pl_chain(halves, pt):
    # pt's images under the half-steps taken in turn until one leaves
    # float range
    out = []
    for k in itertools.count():
        try:
            pt = halves[k % 2](pt)
        except RangeError:
            return out
        out.append(pt)


# the first row is C9's class, 1 + 1471 + 1474 = 2946 members
@pytest.mark.parametrize("p, q, row, lengths", [
    (1.0, 5.0, (1.0, 1.0), (1471, 1474)),
    (2.0, 3.0, (1.0, -0.5), (1077, 1080)),
    (0.5, 12.0, (-2.0, 0.25), (1077, 1076)),
    (1.5, 4.0, (0.3, -1.7), (1079, 1076)),
    (3.0, 3.0, (-1.0, -1.0), (738, 736)),
])  # fmt: skip
def test_mutation_chains_are_pl_half_steps(p, q, row, lengths):
    # a hyperbolic class is the seed and two chains; on the extra row the
    # direction-1 chain takes mu1_c and mu2_c in turn, and the direction-2
    # chain takes the two halves of mu_c_inv, the second factor's inverse
    # first, so the chains end where those half-steps leave float range
    params, start = Params(p, q), PointPL(*row)

    def undo2(pt):
        s = pt.s - q * -pt.t if -pt.t > 0.0 else pt.s
        return _finite_point(s, -pt.t, "undo2")

    def undo1(pt):
        t = pt.t - p * -pt.s if -pt.s > 0.0 else pt.t
        return _finite_point(-pt.s, t, "undo1")

    forward = _pl_chain((partial(mu1_c, params), partial(mu2_c, params)), start)
    backward = _pl_chain((undo2, undo1), start)
    assert (len(forward), len(backward)) == lengths
    for before, after in zip([start] + backward[1::2], backward[1::2]):
        assert mu_c_inv(params, before) == after
    seed = ExtendedExchangeMatrix.from_exponents(p, q, rows=(row,))
    result = mutation_class(seed)
    assert not result.complete and result.size == 1 + len(forward) + len(backward)
    pairs = itertools.zip_longest(forward, backward)
    interleaved = [start] + [pt for pair in pairs for pt in pair if pt is not None]
    assert [mat.entries[2] for mat in result.matrices] == [pt.as_tuple() for pt in interleaved]


def _exact_mutate(rows, k):
    # the mutation rule in exact arithmetic, entries as Fractions
    kk = k - 1
    lever = rows[kk]
    return tuple(
        tuple(
            -v if kk in (i, j)
            else v + max(row[kk] * lever[j], 0) * (1 if row[kk] > 0 else -1)
            for j, v in enumerate(row)
        )
        for i, row in enumerate(rows)
    )


def _exact_class(rows):
    # breadth-first closure with exact equality
    seen, order, work = {rows}, [rows], deque([rows])
    while work:
        current = work.popleft()
        for k in (1, 2):
            nxt = _exact_mutate(current, k)
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                work.append(nxt)
    return order


@pytest.mark.parametrize("q, m", [(1, 3), (2, 4), (3, 6)])
def test_periodic_classes_match_exact_arithmetic(q, m):
    # at p = 1 and integer q every entry stays a small integer, exact in
    # float, so the float class must be the exact one entry for entry
    seeds = [(row,) for row in itertools.product(range(-2, 3), repeat=2) if row != (0, 0)]
    seeds.append(((1, -2), (2, 1)))
    for rows in seeds:
        for negated in (False, True):
            seed = ExtendedExchangeMatrix.from_exponents(1, q, rows=rows, negated=negated)
            exact = _exact_class(tuple(tuple(Fraction(v) for v in row) for row in seed.entries))
            assert len(exact) == _CLASS_SIZES[m]
            result = mutation_class(seed)
            assert result.complete
            assert [mat.entries for mat in result.matrices] == [
                tuple(tuple(float(v) for v in row) for row in mat) for mat in exact
            ]


def _object_class(seed, cap):
    # the class walk one validated matrix at a time through the public
    # mutate, comparing entrywise within EQ_TOL: mutation_class's oracle
    def same(a, b):
        pairs = zip(a.entries, b.entries)
        return all(close_rel(va, vb, EQ_TOL) for ra, rb in pairs for va, vb in zip(ra, rb))

    order, fronts, directions, live, complete = [seed], [seed, seed], [1, 2], [0, 1], True
    while live:
        for c in tuple(live):
            try:
                nxt = ExtendedExchangeMatrix(mutate(fronts[c], directions[c]).entries)
            except RangeError:
                live.remove(c)
                complete = False
                continue
            if same(nxt, fronts[c]):
                live.remove(c)
                continue
            if same(nxt, fronts[1 - c]):
                return order, True
            if len(order) >= cap:
                return order, False
            order.append(nxt)
            fronts[c] = nxt
            directions[c] = 3 - directions[c]
    return order, complete


def _class_seeds():
    # (seed, cap): the periodic classes m = 3..8 with one to three extra
    # rows, plain and negated; the pq = 5 class around its size 2946; the
    # zero blocks with their fixed points; and seeds whose first mutation
    # leaves float range in one direction or in both
    rng = np.random.default_rng(33)
    for m in range(3, 9):
        for n in (1, 2, 3):
            rows = [(1.0, 1.0)] + rng.uniform(-3.0, 3.0, (n - 1, 2)).tolist()
            for negated in (False, True):
                yield ExtendedExchangeMatrix.from_exponents(1.0, _q_for_m(m), rows, negated), 4000
    for rows, negated in ((((1.0, 1.0),), False), (((1.0, 2.0), (3.0, 1.0), (2.0, 2.0)), True)):
        for cap in (1, 2, 2945, 2946, 10**4):
            yield ExtendedExchangeMatrix.from_exponents(1.0, 5.0, rows, negated), cap
    for p, q, row in ((0.0, 0.0, (0.0, 1.0)), (0.0, 0.0, (1.0, 0.0)), (0.0, 0.0, (1.0, 1.0)),
                      (0.0, 0.0, (0.0, 0.0)), (1.0, 1.0, (0.0, 0.0))):
        yield ExtendedExchangeMatrix.from_exponents(p, q, (row,)), 10**5
    for row in ((1e200, 1.0), (1e200, -1e200)):
        yield ExtendedExchangeMatrix.from_exponents(1e200, 1e200, (row,)), 10**5


def test_mutation_class_equals_the_object_walk_bit_for_bit():
    seen = {"complete": 0, "capped": 0, "out of range": 0, "lone seed": 0}
    for seed, cap in _class_seeds():
        want, complete = _object_class(seed, cap)
        result = mutation_class(seed, cap)
        assert result.complete == complete and result.size == len(want)
        assert [_bits(m) for m in result.matrices] == [_bits(m) for m in want]
        assert result.matrices[0] is seed
        assert all(ExtendedExchangeMatrix(m.entries) == m for m in result.matrices)
        seen["complete"] += complete
        seen["capped"] += result.size == cap and not complete
        seen["out of range"] += result.size < cap and not complete
        seen["lone seed"] += result.size == 1
    assert min(seen.values()) >= 2, seen
