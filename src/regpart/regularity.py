"""Classify class pairs as epsilon-regular or irregular, with exact witnesses.

A pair (I, J) is epsilon-regular when every sub-pair (X, Y) with |X| > eps|I|
and |Y| > eps|J| has |d(X,Y) - d(I,J)| <= eps. Irregularity is certified by a
witness (X, Y) violating that bound; regularity of a pair is certified by
exhausting the search space at its smallest qualifying sizes. For a fixed Y,
the largest d(X, Y) over the X of size s is the mean of the s largest
per-vertex counts into Y, so it never rises as s grows, and the smallest never
falls; the same holds with X and Y swapped. A violation at any sizes therefore
implies one at the minimum sizes, and checking those alone is a complete proof
of regularity. Since d(X, Y) = d(Y, X), the exhaustive kernel enumerates the
smaller side, I on a tie. Its witness takes the first violating sub-pair of
that side met by size descending, lexicographic within a size, and for it the
set of the other side farthest from d(I,J) among those of the largest
violating size; found from J's side, it is mirrored, so X stays in I and Y in
J. When eps|I| >= |I| - 1 and eps|J| >= |J| - 1, as for any pair of
singletons, no sub-pair but (I, J) itself can qualify: the space holds at most
that one candidate, whose gap is 0, and the pair is certified without reading
the graph; check_partition applies this test once per pair of class sizes and
never visits such pairs. Pairs too large to exhaust go through a sound but
incomplete heuristic, and an unresolved pair is reported as "unknown, treated
as regular", never as certified. A partition's report stores each witnessed or
unknown pair once, as (a, b) with a <= b.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from numbers import Rational

from .errors import (
    EmptySetError,
    InvalidPartitionError,
    InvalidWitnessError,
    TooLargeError,
)
from .graph import VertexSet, adjacent_pair_count, density, require_epsilon

# The largest |I| + |J| that check_pair_exhaustive enumerates; classify_pair
# routes every larger pair to the heuristic.
EXHAUSTIVE_CUTOFF = 26

REGULAR_CERTIFIED = "regular_certified"
IRREGULAR_WITNESSED = "irregular_witnessed"
UNKNOWN_TREATED_AS_REGULAR = "unknown_treated_as_regular"

VERDICT_REGULAR = "regular"
VERDICT_HEURISTICALLY_REGULAR = "heuristically_regular"
VERDICT_IRREGULAR = "irregular"


@dataclass(frozen=True)
class PairWitness:
    """Sub-pair (x, y) certifying irregularity of a class pair, with densities."""

    x: VertexSet
    y: VertexSet
    d_xy: Fraction
    d_ij: Fraction

    def mirrored(self):
        """The same witness viewed from the transposed pair (J, I)."""
        return PairWitness(x=self.y, y=self.x, d_xy=self.d_xy, d_ij=self.d_ij)


@dataclass(frozen=True)
class PairClassification:
    kind: str
    witness: PairWitness | None = None

    @property
    def is_irregular(self):
        return self.kind == IRREGULAR_WITNESSED

    def mirrored(self):
        if self.witness is None:
            return self
        return PairClassification(self.kind, self.witness.mirrored())


_REGULAR = PairClassification(REGULAR_CERTIFIED)
_UNKNOWN = PairClassification(UNKNOWN_TREATED_AS_REGULAR)


def _is_ratio(d, e, m):
    """True when the stored density d is exactly e/m; d must be rational."""
    return isinstance(d, Rational) and d.numerator * m == e * d.denominator


def validate_witness(g, i, j, eps, witness):
    """Re-check a witness from scratch; raise InvalidWitnessError on any failure.

    Checks containment, both strict size lower bounds, that the stored
    densities equal a fresh count of edges over pairs, and the strict density
    gap. With eps = en/ed every comparison is an integer cross-multiplication;
    a Fraction is formed only to word an error. Returns the checked counts
    (e_xy, m_xy, e_ij, m_ij): the edges and the mass |X||Y| of the witness
    block, then those of the pair (I, J).
    """
    eps = require_epsilon(eps)
    en, ed = eps.numerator, eps.denominator
    x, y = witness.x, witness.y
    if not x.issubset(i) or not y.issubset(j):
        raise InvalidWitnessError("witness sets not contained in their classes")
    if x.size == 0 or y.size == 0:
        raise InvalidWitnessError("witness sets must be nonempty")
    if not (x.size * ed > en * i.size and y.size * ed > en * j.size):
        raise InvalidWitnessError(
            f"witness too small: |x|={x.size}, |y|={y.size} vs "
            f"eps*|I|={eps * i.size}, eps*|J|={eps * j.size}"
        )
    e_xy, m_xy = adjacent_pair_count(g, x, y), x.size * y.size
    e_ij, m_ij = adjacent_pair_count(g, i, j), i.size * j.size
    if not (
        _is_ratio(witness.d_xy, e_xy, m_xy) and _is_ratio(witness.d_ij, e_ij, m_ij)
    ):
        raise InvalidWitnessError("stored densities do not match recomputation")
    if not abs(e_xy * m_ij - e_ij * m_xy) * ed > en * m_xy * m_ij:
        d_xy, d_ij = Fraction(e_xy, m_xy), Fraction(e_ij, m_ij)
        raise InvalidWitnessError(
            f"density gap |{d_xy} - {d_ij}| = {abs(d_xy - d_ij)} not > {eps}"
        )
    return e_xy, m_xy, e_ij, m_ij


def _min_qualifying_size(eps, class_size):
    """Smallest integer s with s > eps * class_size."""
    return eps.numerator * class_size // eps.denominator + 1


def _sizes_certify(lo_x, size_i, lo_y, size_j):
    """True when no sub-pair qualifies, or only (I, J) itself, whose gap is 0."""
    return lo_x > size_i or lo_y > size_j or (lo_x == size_i and lo_y == size_j)


def _band(e_ij, m_ij, eps):
    """Integers (hi, lo, den) with d(I,J) + eps = hi/den and d(I,J) - eps = lo/den.

    e_ij is the edge count of the pair and m_ij = |I||J|, so comparing a
    density e/m against either bound is one integer cross-multiplication.
    """
    en, ed = eps.numerator, eps.denominator
    return e_ij * ed + en * m_ij, e_ij * ed - en * m_ij, m_ij * ed


def check_pair_exhaustive(g, i, j, eps):
    """Decide pair regularity by subset enumeration at the minimum sizes, in integers.

    Regularity is symmetric, since e(X, Y) = e(Y, X), so the search
    enumerates the smaller side: below, I is that side, the given I on a
    tie. When it is the given J, a certificate carries over as it is and a
    witness is mirrored, so its x lies in the given I and its y in the
    given J.

    Let lo_x and lo_y be the least sizes above eps|I| and eps|J|. e(X, Y) is
    additive over the members of either side, so for a fixed Y the largest
    d(X, Y) over the X of one size is the mean of that many largest
    per-vertex counts into Y: it never rises as the size grows, and the
    smallest never falls. The same holds with X and Y swapped. Hence a pair
    with a violating sub-pair has one with |X| = lo_x and |Y| = lo_y, the X
    sizes with a violation form one range lo_x..s*, and for a fixed X some Y
    violates exactly when the sum of the top or bottom lo_y per-vertex counts
    (prefix sums of the sorted counts) leaves the band. With eps = en/ed and
    e_ij the edge count of the pair, the band d(I,J) +- eps scaled by |X||Y|
    is the integers top = floor(hi |X||Y|) and bottom = ceil(lo |X||Y|):
    edge counts are integers, so e(X,Y) violates exactly when e > top or
    e < bottom.

    The search tests X = I first; if it violates, s* = |I|. Otherwise it
    scans size lo_x in lexicographic order, and if no X there violates, the
    pair is RegularCertified. Else it climbs one size at a time, keeps each
    size's first violating X and stops at the first size with none. The
    witness's X is the first one a walk over X by size descending,
    lexicographic within a size, meets: the first violating X of size s*.
    Its Y has the largest size sy with a violation for that X, and is the
    one of that size farthest from d(I,J): the sy members of J with the
    most edges into X, or the sy with the fewest when those lie strictly
    farther, ranked by count and then by index. No Fraction is formed until
    a witness is returned. Two spaces are exhausted before any edge is
    counted: an empty one, and the one-candidate space in which
    eps|I| < |X| forces X = I and eps|J| < |Y| forces Y = J, whose gap
    |d(I,J) - d(I,J)| is 0.
    The empty-side and size checks still come first, so a pair larger than
    EXHAUSTIVE_CUTOFF raises TooLargeError whatever eps is.
    """
    eps = require_epsilon(eps)
    if i.size == 0 or j.size == 0:
        raise EmptySetError("cannot classify a pair with an empty side")
    if i.size + j.size > EXHAUSTIVE_CUTOFF:
        raise TooLargeError(
            f"|i| + |j| = {i.size + j.size} exceeds the exhaustive limit "
            f"{EXHAUSTIVE_CUTOFF}"
        )
    if i.capacity != g.n or j.capacity != g.n:
        raise ValueError("vertex sets sized for a different graph")
    swap = i.size > j.size
    if swap:
        i, j = j, i
    lo_x = _min_qualifying_size(eps, i.size)
    lo_y = _min_qualifying_size(eps, j.size)
    if _sizes_certify(lo_x, i.size, lo_y, j.size):
        return _REGULAR

    bits_i = [1 << u for u in i.members()]
    members_j = j.members()
    cols = [g.rows[v] & i.mask for v in members_j]
    total = len(cols)
    e_ij = sum(col.bit_count() for col in cols)  # the graph is symmetric
    m_ij = i.size * j.size
    hi, lo, den = _band(e_ij, m_ij, eps)

    def bounds(sx, sy):
        return hi * sx * sy // den, -(-lo * sx * sy // den)

    def first_violating_x(sx):
        """Mask of the lexicographically first X of size sx that some Y violates."""
        top, bottom = bounds(sx, lo_y)
        cut = total - lo_y
        for xs in combinations(bits_i, sx):
            x_mask = sum(xs)
            counts = sorted([(col & x_mask).bit_count() for col in cols])
            if sum(counts[cut:]) > top or sum(counts[:lo_y]) < bottom:
                return x_mask
        return None

    sx = i.size
    x_mask = first_violating_x(sx)
    if x_mask is None:
        sx = lo_x
        x_mask = first_violating_x(sx)
        if x_mask is None:
            return _REGULAR
        while sx + 1 < i.size and (wider := first_violating_x(sx + 1)) is not None:
            sx, x_mask = sx + 1, wider

    counts = [(col & x_mask).bit_count() for col in cols]
    prefix = list(accumulate(sorted(counts), initial=0))
    e_x = prefix[total]
    for sy in range(j.size, lo_y - 1, -1):
        top, bottom = bounds(sx, sy)
        if e_x - prefix[total - sy] > top or prefix[sy] < bottom:
            break
    else:
        # an explicit raise, not an assert, so that python -O keeps the check
        raise AssertionError(
            f"X of size {sx} violated at |Y| = {lo_y} but not on re-check"
        )
    # report the densest Y of size sy or the sparsest, whichever lies farther
    # from d(I,J), the densest on a tie: one of them violates, so that one
    # does. Members are ranked by count into X, then by index.
    scaled_ij = e_ij * sx * sy
    dense_gap = abs((e_x - prefix[total - sy]) * m_ij - scaled_ij)
    sign = -1 if dense_gap >= abs(prefix[sy] * m_ij - scaled_ij) else 1
    pick = sorted(range(total), key=lambda idx: (sign * counts[idx], idx))[:sy]
    witness = PairWitness(
        x=VertexSet(x_mask, g.n),
        y=VertexSet.from_iterable((members_j[idx] for idx in pick), g.n),
        d_xy=Fraction(sum(counts[idx] for idx in pick), sx * sy),
        d_ij=Fraction(e_ij, m_ij),
    )
    return PairClassification(
        IRREGULAR_WITNESSED, witness.mirrored() if swap else witness
    )


def find_witness_heuristic(g, i, j, eps):
    """Look for a witness by degree deviation; sound but incomplete.

    Collects the vertices of i whose single-vertex density against j deviates
    from d(I,J) by more than eps/2 (high side X+, low side X-), pairs each with
    either the matching co-neighborhood deviation subset of j or with j itself,
    and returns the first candidate that survives exact witness validation.
    With no validated candidate the pair is UnknownTreatedAsRegular: this tier
    never certifies anything.
    """
    eps = require_epsilon(eps)
    if i.size == 0 or j.size == 0:
        raise EmptySetError("cannot classify a pair with an empty side")
    e_ij = adjacent_pair_count(g, i, j)
    m_ij = i.size * j.size
    d_ij = Fraction(e_ij, m_ij)
    hi, lo, den = _band(e_ij, m_ij, eps / 2)

    # count/size > hi/den, cross-multiplied: exact, and no Fraction per vertex
    x_hi = 0
    x_lo = 0
    jm = j.mask
    hi_j, lo_j = hi * j.size, lo * j.size
    for u in i.members():
        c_u = (g.rows[u] & jm).bit_count() * den
        if c_u > hi_j:
            x_hi |= 1 << u
        elif c_u < lo_j:
            x_lo |= 1 << u

    candidates = []
    for x_mask, keep_high in ((x_hi, True), (x_lo, False)):
        if not x_mask:
            continue
        x = VertexSet(x_mask, g.n)
        hi_x, lo_x = hi * x.size, lo * x.size
        co = 0
        for v in j.members():
            c_v = (g.rows[v] & x_mask).bit_count() * den
            if (keep_high and c_v > hi_x) or (not keep_high and c_v < lo_x):
                co |= 1 << v
        if co:
            candidates.append((x, VertexSet(co, g.n)))
        candidates.append((x, j))

    for x, y in candidates:
        d_xy = density(g, x, y)
        witness = PairWitness(x=x, y=y, d_xy=d_xy, d_ij=d_ij)
        try:
            validate_witness(g, i, j, eps, witness)
        except InvalidWitnessError:
            continue
        return PairClassification(IRREGULAR_WITNESSED, witness)
    return _UNKNOWN


def classify_pair(g, i, j, eps):
    """Check exhaustively when |I| + |J| <= EXHAUSTIVE_CUTOFF, else heuristically."""
    if i.size + j.size <= EXHAUSTIVE_CUTOFF:
        return check_pair_exhaustive(g, i, j, eps)
    return find_witness_heuristic(g, i, j, eps)


@dataclass(frozen=True)
class RegularityReport:
    """Pair-by-pair classification of a partition; the verdict is derived.

    flagged maps each witnessed or unknown pair (a, b), 0 <= a <= b < k, to its
    classification, and any other key raises InvalidWitnessError; every other
    pair is certified regular, and (b, a) is the mirror of (a, b). The
    partition is epsilon-regular when irregular_mass is at most
    threshold = eps * n^2. The verdict is "regular" only when no pair was left
    unresolved by the heuristic tier.
    """

    partition: object
    eps: Fraction
    flagged: dict

    def __post_init__(self):
        k = len(self.partition)
        for a, b in self.flagged:
            if not 0 <= a <= b < k:
                raise InvalidWitnessError(
                    f"flagged key ({a}, {b}) is not a class pair a <= b < {k}"
                )

    @property
    def threshold(self):
        return self.eps * self.partition.ground_size**2

    @property
    def irregular_mass(self):
        """Total |I||J| over the ordered pairs that carry a witness."""
        p = self.partition
        return sum(
            (1 if a == b else 2) * p[a].size * p[b].size
            for (a, b), c in self.flagged.items()
            if c.is_irregular
        )

    @property
    def verdict(self):
        if self.irregular_mass > self.threshold:
            return VERDICT_IRREGULAR
        if self.has_unknown():
            return VERDICT_HEURISTICALLY_REGULAR
        return VERDICT_REGULAR

    @property
    def classifications(self):
        """Fresh dict of all k*k ordered pairs, row-major; unflagged ones certified."""
        k = range(len(self.partition))
        return {
            (a, b): self.flagged.get((a, b), _REGULAR)
            if a <= b
            else self.flagged.get((b, a), _REGULAR).mirrored()
            for a in k
            for b in k
        }

    def witnesses(self):
        """Witness map {(a, b): PairWitness}, a <= b, over irregular pairs."""
        return {pair: c.witness for pair, c in self.flagged.items() if c.is_irregular}

    def has_unknown(self):
        return any(c.kind == UNKNOWN_TREATED_AS_REGULAR for c in self.flagged.values())


def check_partition(g, p, eps):
    """Classify every class pair of p (diagonal included), each a <= b once.

    A pair within EXHAUSTIVE_CUTOFF whose class sizes alone certify it
    (_sizes_certify) is skipped. The rest go through classify_pair, a <= b in
    lexicographic order, so the first error raised is the one a walk over
    every pair would raise.
    """
    eps = require_epsilon(eps)
    if p.ground_size != g.n:
        raise InvalidPartitionError("partition does not match the graph")
    lo = {c.size: _min_qualifying_size(eps, c.size) for c in p}

    def decided(s, t):
        return s + t <= EXHAUSTIVE_CUTOFF and _sizes_certify(lo[s], s, lo[t], t)

    # per class size s, ascending indices of the classes whose size pair is open
    partners = {s: [b for b, c in enumerate(p) if not decided(s, c.size)] for s in lo}
    flagged = {}
    for a, cls_a in enumerate(p):
        row = partners[cls_a.size]
        for b in row[bisect_left(row, a) :]:
            cls = classify_pair(g, cls_a, p[b], eps)
            if cls.kind != REGULAR_CERTIFIED:
                flagged[(a, b)] = cls
    return RegularityReport(partition=p, eps=eps, flagged=flagged)
