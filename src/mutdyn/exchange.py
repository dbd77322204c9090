"""Mutation of exchange matrices extended by real rows.

The objects here are real matrices with two columns: a 2 x 2 exchange
block on top (zero diagonal, off-diagonal entries of opposite sign or
both zero) and any number of extra real rows below it.  Mutation in a
direction k flips the sign of row and column k and shifts every other
entry by sign(b_ik) max(b_ik b_kj, 0); it is an involution in either
direction.

The extra rows are where the planar dynamics live: alternating the
two directions acts on each extra row exactly as the piecewise-linear
factor maps act on the plane, with the exchange block flipping between
a form and its negation.  The mutation class of a seed matrix is its
orbit under both directions; it is finite precisely at the globally
periodic products.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import DomainError, RangeError, _count
from .floatops import EQ_TOL, close_rel

__all__ = [
    "ExtendedExchangeMatrix",
    "MutationClassResult",
    "mutate",
    "mutation_class",
]


@dataclass(frozen=True)
class ExtendedExchangeMatrix:
    """A (2 + extra) x 2 real matrix whose top block is an exchange matrix.

    ``entries`` is stored as a tuple of row tuples of floats.
    """

    entries: tuple

    def __post_init__(self):
        try:
            rows = tuple(tuple(float(v) for v in row) for row in self.entries)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"entries must be rows of reals: {exc}") from None
        if len(rows) < 2 or any(len(r) != 2 for r in rows):
            raise DomainError("matrix needs two columns and at least the exchange rows")
        for row in rows:
            for v in row:
                if not math.isfinite(v):
                    raise DomainError(f"entries must be finite, got {v!r}")
        (a, b), (c, d) = rows[0], rows[1]
        if a != 0.0 or d != 0.0:
            raise DomainError("exchange block must have a zero diagonal")
        # by the signs, since the product b * c can underflow to zero
        if (b > 0.0 and c > 0.0) or (b < 0.0 and c < 0.0):
            raise DomainError(
                "exchange block off-diagonal entries must have opposite signs or vanish"
            )
        object.__setattr__(self, "entries", rows)

    @property
    def exchange_product(self) -> float:
        """|b_12 b_21|, the product that controls the dynamics."""
        return abs(self.entries[0][1] * self.entries[1][0])

    @property
    def extra_rows(self) -> tuple:
        return self.entries[2:]

    @classmethod
    def from_exponents(cls, p: float, q: float, rows=(), negated: bool = False):
        """Exchange block ((0, p), (-q, 0)), or its negation, over the given rows."""
        p = float(p)
        q = float(q)
        top = ((0.0, -p), (q, 0.0)) if negated else ((0.0, p), (-q, 0.0))
        return cls(top + tuple(tuple(r) for r in rows))


def mutate(mat: ExtendedExchangeMatrix, k: int) -> ExtendedExchangeMatrix:
    """Mutate in direction k, which must be 1 or 2.

    Entries in row or column k flip sign; entry (i, j) elsewhere gains
    sign(b_ik) max(b_ik b_kj, 0).  Applying the same direction twice
    returns the original matrix (exactly in exact arithmetic, to
    rounding in floating point).  An entry that leaves float range
    raises RangeError.
    """
    if k not in (1, 2):
        raise DomainError(f"mutation direction must be 1 or 2, got {k!r}")
    kk = k - 1
    rows = mat.entries
    lever_row = rows[kk]
    out = []
    for i, row in enumerate(rows):
        if i == kk:
            out.append(tuple(-v for v in row))
            continue
        new = []
        for j, v in enumerate(row):
            if j == kk:
                new.append(-v)
                continue
            prod = row[kk] * lever_row[j]
            if prod > 0.0:
                new.append(v + prod if row[kk] > 0.0 else v - prod)
            else:
                new.append(v)
        out.append(tuple(new))
    try:
        return ExtendedExchangeMatrix(tuple(out))
    except DomainError:
        # the image of a valid matrix is valid but for entries out of range
        raise RangeError(f"mutation in direction {k} left float range") from None


@dataclass(frozen=True)
class MutationClassResult:
    """Closure of a seed under both directions.

    ``matrices`` lists the members in discovery order, seed first;
    ``complete`` reports whether the closure stabilized before the cap.
    """

    matrices: tuple
    complete: bool

    @property
    def size(self) -> int:
        return len(self.matrices)


def _bucket_key(mat: ExtendedExchangeMatrix) -> tuple:
    # coarse hash at 1e-6 granularity; exact membership is decided by
    # the tolerance comparison within a bucket.  Near-equal members in
    # different buckets are double-counted, and with large entries
    # rounding puts round trips there: at p = 1, q = 5, row (1, 1) the
    # cap 10^4 fills although at most 2946 members are distinct (the two
    # mutation chains leave float range after 1471 and 1474 steps).  An
    # entry whose scaled value overflows is its own key
    try:
        return tuple(round(v * 1e6) for row in mat.entries for v in row)
    except OverflowError:
        return tuple(v if math.isinf(v * 1e6) else round(v * 1e6) for row in mat.entries for v in row)


def _same(a: ExtendedExchangeMatrix, b: ExtendedExchangeMatrix) -> bool:
    if len(a.entries) != len(b.entries):
        return False
    for ra, rb in zip(a.entries, b.entries):
        for va, vb in zip(ra, rb):
            if not close_rel(va, vb, EQ_TOL):
                return False
    return True


def mutation_class(seed: ExtendedExchangeMatrix, cap: int = 10**5) -> MutationClassResult:
    """Breadth-first closure of a seed matrix under both mutation directions.

    Members reached along different mutation words can differ by a few
    ulps, so membership is decided entrywise within EQ_TOL.  The walk
    stops once ``cap`` members are held, reporting an incomplete
    closure.
    """
    cap = _count(cap, "cap", 1)
    buckets: dict[tuple, list[ExtendedExchangeMatrix]] = {}
    order: list[ExtendedExchangeMatrix] = []

    def seen(m: ExtendedExchangeMatrix) -> bool:
        for other in buckets.get(_bucket_key(m), ()):
            if _same(m, other):
                return True
        return False

    def add(m: ExtendedExchangeMatrix) -> None:
        buckets.setdefault(_bucket_key(m), []).append(m)
        order.append(m)

    add(seed)
    work = deque([seed])
    while work:
        current = work.popleft()
        for k in (1, 2):
            nxt = mutate(current, k)
            if seen(nxt):
                continue
            if len(order) >= cap:
                # a new member exists but there is no room left for it
                return MutationClassResult(tuple(order), False)
            add(nxt)
            work.append(nxt)
    return MutationClassResult(tuple(order), True)
