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

from dataclasses import dataclass
from math import isfinite

from .errors import DomainError, RangeError, _count, _real
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
            rows = tuple(tuple(_real(v, "entries") for v in row) for row in self.entries)
        except TypeError as exc:
            raise DomainError(f"entries must be rows of reals: {exc}") from None
        if len(rows) < 2 or any(len(r) != 2 for r in rows):
            raise DomainError("matrix needs two columns and at least the exchange rows")
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
        p = _real(p, "exponents", "p")
        q = _real(q, "exponents", "q")
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
    k = _count(k, "mutation direction", 1)
    if k > 2:
        raise DomainError(f"mutation direction must be 1 or 2, got {k!r}")
    rows = _mutated(mat.entries, k - 1)
    if rows is None:
        raise RangeError(f"mutation in direction {k} left float range")
    return _trusted(rows)


def _mutated(rows, kk):
    # the image rows in direction kk + 1, or None once an entry leaves float range
    lever = rows[kk][1 - kk]
    out = []
    for i, row in enumerate(rows):
        # a in column k, b in the other column
        a, b = row[kk], row[1 - kk]
        prod = a * lever
        if i == kk:
            b = -b
        elif prod > 0.0:
            b = b + prod if a > 0.0 else b - prod
            if not isfinite(b):
                return None
        out.append((-a, b) if kk == 0 else (b, -a))
    return tuple(out)


def _trusted(rows) -> ExtendedExchangeMatrix:
    # _mutated's image of a valid matrix's rows, valid unchecked: every
    # entry it shifts is in range, and every other one only flips sign
    mat = object.__new__(ExtendedExchangeMatrix)
    object.__setattr__(mat, "entries", rows)
    return mat


@dataclass(frozen=True)
class MutationClassResult:
    """The members of a seed's class under both directions.

    ``matrices`` lists the members seed first, then one from each
    mutation chain in turn; ``complete`` reports whether the class
    closed: both chains ended, at a fixed point or by meeting, before
    the cap and without leaving float range.
    """

    matrices: tuple
    complete: bool

    @property
    def size(self) -> int:
        return len(self.matrices)


def _same(a, b) -> bool:
    # rows entrywise within EQ_TOL; mutation keeps the shape, so they pair up
    for (a0, a1), (b0, b1) in zip(a, b):
        if not (close_rel(a0, b0, EQ_TOL) and close_rel(a1, b1, EQ_TOL)):
            return False
    return True


def mutation_class(seed: ExtendedExchangeMatrix, cap: int = 10**5) -> MutationClassResult:
    """The class of a seed matrix under both mutation directions.

    Both directions are involutions, so the class is the seed and its
    two alternating mutation chains, one starting in each direction: a
    path or a cycle.  The walk takes one new member from each chain in
    turn, direction 1 first, comparing entrywise within EQ_TOL.  A chain
    ends at a fixed point, where its next member equals its front; the
    class closes when a chain's next member is the other chain's front.
    The walk stops once ``cap`` members are held, and a chain whose next
    member leaves float range ends there; either way the class is
    reported incomplete, so one that did not close and is shorter than
    its cap left float range.
    """
    cap = _count(cap, "cap", 1)
    # the chains step row tuples, taking turns: chain c in direction kk[c] + 1 next
    order, fronts, kk, live, complete = [seed.entries], [seed.entries] * 2, [0, 1], [0, 1], True
    while live:
        c = live.pop(0)
        nxt = _mutated(fronts[c], kk[c])
        if nxt is None or _same(nxt, fronts[c]):
            # the chain leaves float range or ends at a fixed point
            complete = complete and nxt is not None
            continue
        if _same(nxt, fronts[1 - c]):
            complete = True
            break
        if len(order) >= cap:
            # a new member exists but there is no room left for it
            complete = False
            break
        order.append(nxt)
        fronts[c], kk[c] = nxt, 1 - kk[c]
        live.append(c)
    return MutationClassResult((seed, *map(_trusted, order[1:])), complete)
