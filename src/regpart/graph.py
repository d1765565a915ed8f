"""Immutable graphs, bitset vertex sets, partitions, and exact density/energy.

All quantities that the rest of the library compares against thresholds are
exact. The pair-check kernels and witness revalidation compare edge counts by
integer cross-multiplication, and every reported quantity is still a
``fractions.Fraction``: the regularity conditions are strict inequalities, so
no floating point is allowed anywhere near a verdict.
Vertex sets are plain integer bitmasks (bit v = vertex v), which keeps the
density kernel a handful of ``&`` / ``bit_count`` operations.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BadEpsilonError,
    BadParamsError,
    EmptySetError,
    InvalidPartitionError,
)


def as_fraction(value):
    """Convert to an exact Fraction.

    Accepts Fraction, int, or a string ("3/8", "0.375", "2"). Floats are
    rejected: their binary value is almost never the rational the caller
    meant, and exactness is the whole point. Scientific notation is rejected
    for the same reason (the parse would be exact but the format invites
    rounded inputs).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"refusing float {value!r}: pass a string like '1/4' or a Fraction"
        )
    if isinstance(value, str):
        text = value.strip()
        if "e" in text.lower():
            raise ValueError(f"scientific notation not accepted: {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
    raise ValueError(f"not an exact rational: {value!r}")


def require_epsilon(eps):
    """Parse and validate an epsilon: exact rational, strictly positive."""
    try:
        value = as_fraction(eps)
    except ValueError as exc:
        raise BadEpsilonError(str(exc)) from exc
    if value.numerator <= 0:  # a Fraction's denominator is always positive
        raise BadEpsilonError(f"epsilon must be > 0, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class VertexSet:
    """Immutable subset of {0..capacity-1}, backed by an int bitmask."""

    mask: int
    capacity: int
    size: int = field(init=False, compare=False)
    _members: tuple | None = field(init=False, compare=False)

    def __init__(self, mask, capacity):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if mask < 0 or mask >> capacity:
            raise ValueError("mask has bits outside 0..capacity-1")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "capacity", capacity)
        object.__setattr__(self, "size", mask.bit_count())
        object.__setattr__(self, "_members", None)

    @classmethod
    def from_iterable(cls, vertices, capacity):
        mask = 0
        for v in vertices:
            if not 0 <= v < capacity:
                raise ValueError(f"vertex {v} outside 0..{capacity - 1}")
            mask |= 1 << v
        return cls(mask, capacity)

    @classmethod
    def full(cls, capacity):
        return cls((1 << capacity) - 1, capacity)

    @classmethod
    def empty(cls, capacity):
        return cls(0, capacity)

    def members(self):
        """Member vertices in ascending order, as one tuple built on the first call."""
        if self._members is None:
            out = []
            m = self.mask
            while m:
                low = m & -m
                out.append(low.bit_length() - 1)
                m ^= low
            object.__setattr__(self, "_members", tuple(out))
        return self._members

    def min_member(self):
        if not self.mask:
            raise EmptySetError("empty vertex set has no members")
        return (self.mask & -self.mask).bit_length() - 1

    def issubset(self, other):
        return self.mask & ~other.mask == 0

    def __contains__(self, v):
        return 0 <= v < self.capacity and (self.mask >> v) & 1 == 1

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(self.members())

    def __and__(self, other):
        self._check_peer(other)
        return VertexSet(self.mask & other.mask, self.capacity)

    def __or__(self, other):
        self._check_peer(other)
        return VertexSet(self.mask | other.mask, self.capacity)

    def __sub__(self, other):
        self._check_peer(other)
        return VertexSet(self.mask & ~other.mask, self.capacity)

    def complement(self):
        return VertexSet(~self.mask & ((1 << self.capacity) - 1), self.capacity)

    def _check_peer(self, other):
        if not isinstance(other, VertexSet) or other.capacity != self.capacity:
            raise ValueError("vertex sets have different capacities")

    def __repr__(self):
        return f"VertexSet({{{', '.join(map(str, self.members()))}}}, n={self.capacity})"


# _check_symmetric checks n x w bands of the adjacency matrix, with
# w = min(n, max(_MIN_BAND_WIDTH, _BAND_CHARS // n)): a band string holds
# _BAND_CHARS characters or fewer up to n = 16,384, and every n <= 1024 is one
# band. Each band shifts every n-bit row once, so bands narrower than 64
# columns would cost more time than the memory they save.
_BAND_CHARS = 1 << 20
_MIN_BAND_WIDTH = 64


def _check_symmetric(rows):
    """Raise at the first pair u < v, in row-major order, with A[u][v] != A[v][u].

    Works on bands of w columns (w as set by _BAND_CHARS and _MIN_BAND_WIDTH).
    For columns a..a+w-1, each row's w-bit slice is formatted reversed (index
    j = bit a+j) and the n slices are joined into one string, so column a+j is
    the strided slice ``band[j::w]``; it must equal row a+j's own bit string.
    When one band covers the matrix (w == n), the row strings are slices of
    the band as well. Formatting, slicing and comparing all run in C, and the
    extra memory is about two band strings, not n^2 bits.
    """
    n = len(rows)
    w = min(n, max(_MIN_BAND_WIDTH, _BAND_CHARS // n))
    row_fmt = f"0{n}b"
    for a in range(0, n, w):
        width = min(w, n - a)
        mask = (1 << width) - 1
        fmt = f"0{width}b"
        band = "".join([format(r >> a & mask, fmt)[::-1] for r in rows])
        for j in range(width):
            u = a + j
            if width == n:
                row = band[u * n:(u + 1) * n]
            else:
                row = format(rows[u], row_fmt)[::-1]
            if band[j::width] != row:
                # u is the smallest vertex in any asymmetric pair, so every
                # mismatch in its row lies at some v > u.
                v = next(
                    v for v in range(u + 1, n)
                    if (rows[u] >> v) & 1 != (rows[v] >> u) & 1
                )
                raise BadParamsError(f"adjacency not symmetric at ({u}, {v})")


@dataclass(frozen=True, slots=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1; adjacency as row bitmasks.

    The constructor is the one validation path for every caller, the edge-list
    loader included: it rejects bits outside 0..n-1, loops and asymmetric
    rows. The symmetry check compares bands of columns with the matching
    rows (see ``_check_symmetric``); its time grows with n^2 or faster even
    for a graph without edges.
    """

    rows: tuple
    n: int = field(init=False, compare=False)
    edge_count: int = field(init=False, compare=False)

    def __init__(self, rows):
        rows = tuple(rows)
        n = len(rows)
        if n < 1:
            raise BadParamsError("graph needs at least one vertex")
        for u, row in enumerate(rows):
            if row < 0 or row >> n:
                raise BadParamsError(f"adjacency row {u} has bits outside 0..{n - 1}")
            if (row >> u) & 1:
                raise BadParamsError(f"loop at vertex {u}")
        _check_symmetric(rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "edge_count", sum(r.bit_count() for r in rows) // 2)

    @classmethod
    def from_edges(cls, n, edges):
        rows = [0] * n
        for u, v in edges:
            # an id outside 0..n-1 would index or wrap rows; Graph() rejects loops
            if not (0 <= u < n and 0 <= v < n):
                raise BadParamsError(f"edge ({u}, {v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(rows)

    @classmethod
    def empty(cls, n):
        return cls([0] * n)

    @classmethod
    def complete(cls, n):
        full = (1 << n) - 1
        return cls([full ^ (1 << u) for u in range(n)])

    def has_edge(self, u, v):
        return 0 <= u < self.n and 0 <= v < self.n and (self.rows[u] >> v) & 1 == 1

    def edges(self):
        """Unordered edges (u, v) with u < v, ascending."""
        for u in range(self.n):
            m = self.rows[u] >> (u + 1)
            while m:
                low = m & -m
                yield (u, u + low.bit_length())
                m ^= low

    def vertex_set(self):
        return VertexSet.full(self.n)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True, slots=True)
class Partition:
    """Ordered list of disjoint nonempty vertex sets covering {0..n-1}.

    Classes are stored in canonical order (ascending smallest member) so that
    every downstream artifact (reports, refinements, files) is deterministic.
    """

    classes: tuple
    ground_size: int = field(init=False, compare=False)

    def __init__(self, classes):
        classes = tuple(classes)
        if not classes:
            raise InvalidPartitionError("partition needs at least one class")
        cap = getattr(classes[0], "capacity", None)  # the loop rejects non-sets
        union = 0
        total = 0
        for c in classes:
            if not isinstance(c, VertexSet):
                raise InvalidPartitionError(
                    f"a class is a {type(c).__name__}, not a VertexSet"
                )
            if c.capacity != cap:
                raise InvalidPartitionError("classes have mismatched capacities")
            if c.size == 0:
                raise InvalidPartitionError("empty class")
            union |= c.mask
            total += c.size
        if total != cap or union != (1 << cap) - 1:
            raise InvalidPartitionError(
                "classes do not partition the ground set (overlap or gap)"
            )
        ordered = tuple(sorted(classes, key=lambda c: c.mask & -c.mask))
        object.__setattr__(self, "classes", ordered)
        object.__setattr__(self, "ground_size", cap)

    @classmethod
    def single(cls, n):
        return cls([VertexSet.full(n)])

    @classmethod
    def discrete(cls, n):
        return cls([VertexSet(1 << v, n) for v in range(n)])

    @classmethod
    def from_sets(cls, sets, n):
        return cls([VertexSet.from_iterable(s, n) for s in sets])

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, i):
        return self.classes[i]

    def refines(self, other):
        """True if every class here is contained in some class of `other`.

        The classes of `other` are disjoint, so the only candidate for a class
        c is the one holding c's smallest member: one vertex-to-class table
        makes the test O(n + k) instead of O(k^2) subset tests.
        """
        if other.ground_size != self.ground_size:
            return False
        owner = [None] * self.ground_size
        for big in other.classes:
            for v in big.members():
                owner[v] = big
        return all(c.issubset(owner[c.min_member()]) for c in self.classes)

    def __repr__(self):
        body = "; ".join(
            "{" + ",".join(map(str, c.members())) + "}" for c in self.classes
        )
        return f"Partition[{body}]"


def require_block(g, i, j):
    """Raise unless i and j are nonempty vertex sets sized for g."""
    if i.capacity != g.n or j.capacity != g.n:
        raise ValueError("vertex sets sized for a different graph")
    if i.size == 0 or j.size == 0:
        raise EmptySetError("a block needs nonempty sets on both sides")


def require_partition(g, p):
    """Raise unless p is a Partition of g's vertices."""
    if not isinstance(p, Partition) or p.ground_size != g.n:
        raise InvalidPartitionError("partition does not match the graph")


def adjacent_pair_count(g, i, j):
    """Number of ordered pairs (u, v) in i x j with u adjacent to v."""
    require_block(g, i, j)
    jm = j.mask
    return sum((g.rows[u] & jm).bit_count() for u in i.members())


def density(g, i, j):
    """Edge density of the ordered block i x j, exact in [0, 1].

    Overlapping (or identical) sets are fine: pairs are ordered and the
    diagonal never counts because the graph has no loops.
    """
    return Fraction(adjacent_pair_count(g, i, j), i.size * j.size)


def energy(g, p):
    """Sum of |I||J| * d(I,J)^2 over all ordered class pairs of p.

    Equals the squared Frobenius norm of the adjacency matrix averaged over
    each class-pair block (the oracle module computes the same value from
    explicit matrices). Always in [0, n^2], and it can only grow under
    refinement.

    One loop over the classes counts each class's edges into every class b
    of two or more vertices. A singleton {u} stands for both blocks
    ({u}, b) and (b, {u}), which have the same count e, so its terms weigh
    2 and b's own pass skips the singletons. The singletons' blocks with
    each other, e in {0, 1} so e^2 = e, add |N(u) & S| at mass 1 for each
    singleton u, with S the mask of all singletons. So the cost is
    n k2 + |S| popcounts, with k2 the number of classes of two or more
    vertices, not n k. The terms e^2 / (|I||J|) are grouped by block mass
    |I||J|: the integer e^2 values of a group are summed first, and each
    group adds one Fraction.
    """
    require_partition(g, p)
    rows = g.rows
    blocks = [c for c in p.classes if c.size > 1]
    sizes = [c.size for c in blocks]
    masks = [c.mask for c in blocks]
    s_mask = sum(c.mask for c in p.classes if c.size == 1)
    k2 = len(blocks)
    by_mass = {1: 0}
    for cls in p.classes:
        size_a = cls.size
        row_counts = [0] * k2
        for u in cls.members():
            r = rows[u]
            for b in range(k2):
                row_counts[b] += (r & masks[b]).bit_count()
        weight = 1
        if size_a == 1:  # r is the row of the class's one member
            weight = 2
            by_mass[1] += (r & s_mask).bit_count()
        for size_b, e in zip(sizes, row_counts):
            if e:
                mass = size_a * size_b
                by_mass[mass] = by_mass.get(mass, 0) + weight * e * e
    return sum((Fraction(s, mass) for mass, s in by_mass.items() if s), Fraction(0))
