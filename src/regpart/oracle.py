"""Small, slow, independent re-derivations used to cross-check the fast path.

Everything here works on explicit dense matrices of exact rationals and
enumerates rather than prunes. The point is an implementation with no shared
logic: partition energy falls out as the squared Frobenius norm of an
explicitly projected matrix, and pair checks walk every submask pair in plain
ascending-integer order, counting adjacent pairs one by one.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EmptySetError, InvalidPartitionError, TooLargeError
from .graph import VertexSet, as_fraction, require_epsilon
from .regularity import (
    IRREGULAR_WITNESSED,
    REGULAR_CERTIFIED,
    PairClassification,
    PairWitness,
)

MAX_DENSE_N = 256
MAX_BRUTE_SIDE = 12


@dataclass(frozen=True, slots=True)
class DenseMatrix:
    """Square matrix of Fractions, sized for brute-force work only."""

    rows: tuple
    n: int = field(init=False, compare=False)

    def __init__(self, rows):
        n = len(rows)
        if n == 0:
            raise ValueError("matrix needs at least one row")
        if n > MAX_DENSE_N:
            raise TooLargeError(f"n = {n} exceeds dense-matrix cap {MAX_DENSE_N}")
        converted = []
        for row in rows:
            row = tuple(as_fraction(x) for x in row)
            if len(row) != n:
                raise ValueError("matrix is not square")
            converted.append(row)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(converted))

    @classmethod
    def zeros(cls, n):
        zero = Fraction(0)
        return cls([[zero] * n for _ in range(n)])

    @classmethod
    def from_graph(cls, g):
        one, zero = Fraction(1), Fraction(0)
        return cls(
            [
                [one if g.has_edge(u, v) else zero for v in range(g.n)]
                for u in range(g.n)
            ]
        )

    def __sub__(self, other):
        if self.n != other.n:
            raise ValueError("matrices differ in size")
        return DenseMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __repr__(self):
        return f"DenseMatrix(n={self.n})"


def frobenius_sq(m):
    """Sum of squared entries, exact."""
    return sum((x * x for row in m.rows for x in row), Fraction(0))


def inner_product(a, b):
    """Entrywise inner product; zero exactly when a and b are orthogonal."""
    if a.n != b.n:
        raise ValueError("matrices differ in size")
    return sum(
        (x * y for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb)),
        Fraction(0),
    )


def _average_blocks(m, blocks):
    """Matrix equal to the average of m over each block I x J listed, zero outside."""
    zero = Fraction(0)
    out = [[zero] * m.n for _ in range(m.n)]
    for i, j in blocks:
        total = sum((m.rows[u][v] for u in i.members() for v in j.members()), zero)
        avg = total / (i.size * j.size)
        for u in i.members():
            for v in j.members():
                out[u][v] = avg
    return DenseMatrix(out)


def project_block(m, i, j):
    """Matrix equal to the average of m over I x J on that block, zero outside."""
    if i.capacity != m.n or j.capacity != m.n:
        raise ValueError("vertex sets sized for a different matrix")
    if i.size == 0 or j.size == 0:
        raise EmptySetError("cannot project onto an empty block")
    return _average_blocks(m, [(i, j)])


def project_partition(m, p):
    """Replace every block I x J of m (ordered class pairs of p) by its average."""
    if p.ground_size != m.n:
        raise InvalidPartitionError("partition does not match the matrix")
    return _average_blocks(m, [(i, j) for i in p for j in p])


def brute_force_pair_check(g, i, j, eps):
    """Pair regularity by unpruned enumeration, in ascending-submask order.

    Densities are counted against an explicit set of ordered adjacent pairs,
    one membership test per pair, so nothing is shared with the fast path
    beyond the result containers. Sides are capped at 12 vertices each.
    """
    eps = require_epsilon(eps)
    if i.size == 0 or j.size == 0:
        raise EmptySetError("cannot classify a pair with an empty side")
    if i.size > MAX_BRUTE_SIDE or j.size > MAX_BRUTE_SIDE:
        raise TooLargeError(
            f"side sizes {i.size}, {j.size} exceed brute-force cap {MAX_BRUTE_SIDE}"
        )
    mi = i.members()
    mj = j.members()
    adjacent = {
        (u, v) for u in mi for v in mj if g.has_edge(u, v)
    }
    d_ij = Fraction(len(adjacent), i.size * j.size)

    for xm in range(1, 1 << i.size):
        xs = [mi[t] for t in range(i.size) if xm >> t & 1]
        if not len(xs) > eps * i.size:
            continue
        for ym in range(1, 1 << j.size):
            ys = [mj[t] for t in range(j.size) if ym >> t & 1]
            if not len(ys) > eps * j.size:
                continue
            count = sum(1 for u in xs for v in ys if (u, v) in adjacent)
            d_xy = Fraction(count, len(xs) * len(ys))
            if abs(d_xy - d_ij) > eps:
                return PairClassification(
                    IRREGULAR_WITNESSED,
                    PairWitness(
                        x=VertexSet.from_iterable(xs, g.n),
                        y=VertexSet.from_iterable(ys, g.n),
                        d_xy=d_xy,
                        d_ij=d_ij,
                    ),
                )
    return PairClassification(REGULAR_CERTIFIED)
