"""Classify class pairs as epsilon-regular or irregular, with exact witnesses.

A pair (I, J) is epsilon-regular when every sub-pair (X, Y) with |X| > eps|I|
and |Y| > eps|J| has |d(X,Y) - d(I,J)| <= eps. Irregularity is certified by a
witness (X, Y) violating that bound; regularity of a pair is certified only by
exhausting the search space. When eps|I| >= |I| - 1 and eps|J| >= |J| - 1, as
for any pair of singletons, no sub-pair but (I, J) itself can qualify: the
space holds at most that one candidate, whose gap is 0, and the pair is
certified without reading the graph; check_partition applies this test once
per pair of class sizes and never visits such pairs. Pairs too large to
exhaust go through a sound but incomplete heuristic, and an unresolved pair is
reported as "unknown, treated as regular", never as certified. A partition's
report stores each witnessed or unknown pair once, as (a, b) with a <= b.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations

from .errors import (
    BadParamsError,
    EmptySetError,
    InvalidPartitionError,
    InvalidWitnessError,
    TooLargeError,
)
from .graph import VertexSet, adjacent_pair_count, density, require_epsilon

# The default cutoff, and the largest |I| + |J| check_pair_exhaustive enumerates.
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


def validate_witness(g, i, j, eps, witness):
    """Re-check a witness from scratch; raise InvalidWitnessError on any failure.

    Checks containment, both strict size lower bounds, the strict density gap,
    and that the stored densities match a fresh exact recomputation.
    """
    eps = require_epsilon(eps)
    x, y = witness.x, witness.y
    if not x.issubset(i) or not y.issubset(j):
        raise InvalidWitnessError("witness sets not contained in their classes")
    if x.size == 0 or y.size == 0:
        raise InvalidWitnessError("witness sets must be nonempty")
    if not (x.size > eps * i.size and y.size > eps * j.size):
        raise InvalidWitnessError(
            f"witness too small: |x|={x.size}, |y|={y.size} vs "
            f"eps*|I|={eps * i.size}, eps*|J|={eps * j.size}"
        )
    d_xy = density(g, x, y)
    d_ij = density(g, i, j)
    if d_xy != witness.d_xy or d_ij != witness.d_ij:
        raise InvalidWitnessError("stored densities do not match recomputation")
    if not abs(d_xy - d_ij) > eps:
        raise InvalidWitnessError(
            f"density gap |{d_xy} - {d_ij}| = {abs(d_xy - d_ij)} not > {eps}"
        )


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


def _first_pick_above(counts, size, bound):
    """Lexicographically first tuple of `size` indices whose counts sum past bound.

    Greedy completion: each position takes the smallest index whose best
    completion (itself plus the largest counts after it) still exceeds the
    bound. The caller guarantees that the top `size` counts exceed it, so a
    completion always exists; the indices tried only ever increase.
    """
    pick = []
    start = 0
    for left in range(size, 0, -1):
        for idx in range(start, len(counts) - left + 1):
            rest = sorted(counts[idx + 1 :], reverse=True)[: left - 1]
            if counts[idx] + sum(rest) > bound:
                pick.append(idx)
                bound -= counts[idx]
                start = idx + 1
                break
    return tuple(pick)


def check_pair_exhaustive(g, i, j, eps):
    """Decide pair regularity by complete subset enumeration, in integers.

    Enumerates candidate X by size descending, lexicographic within a size,
    then Y-sizes descending, and returns the first violating sub-pair (X, Y),
    Y lexicographically first among its size. With eps = en/ed and e_ij the
    edge count of the pair, the bounds d(I,J) +- eps scaled by |X||Y| are
    precomputed per size pair as integers: top = floor(hi |X||Y|) and
    bottom = ceil(lo |X||Y|). Edge counts are integers, so e(X,Y) violates
    exactly when e > top or e < bottom. For a fixed X, e(X,Y) is additive over
    the members of Y, so the extreme counts of each Y-size are prefix sums of
    the sorted per-vertex counts and decide whether any Y of that size
    violates; the first violating Y is then built by greedy completion
    instead of enumeration. No Fraction is formed until a witness is
    returned. Returns RegularCertified only after the entire space of X is
    exhausted. Two spaces are exhausted before any edge is counted: an empty
    one, and the one-candidate space in which eps|I| < |X| forces X = I and
    eps|J| < |Y| forces Y = J, whose gap |d(I,J) - d(I,J)| is 0. The
    empty-side and size checks still come first, so a pair larger than
    EXHAUSTIVE_CUTOFF raises TooLargeError whatever eps is.
    """
    eps = require_epsilon(eps)
    if i.size == 0 or j.size == 0:
        raise EmptySetError("cannot classify a pair with an empty side")
    if i.size + j.size > EXHAUSTIVE_CUTOFF:
        raise TooLargeError(
            f"|i| + |j| = {i.size + j.size} exceeds exhaustive cutoff "
            f"{EXHAUSTIVE_CUTOFF}"
        )
    if i.capacity != g.n or j.capacity != g.n:
        raise ValueError("vertex sets sized for a different graph")
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

    for sx in range(i.size, lo_x - 1, -1):
        bounds = [
            (sy, hi * sx * sy // den, -(-lo * sx * sy // den))
            for sy in range(j.size, lo_y - 1, -1)
        ]
        for xs in combinations(bits_i, sx):
            x_mask = sum(xs)
            counts = [(col & x_mask).bit_count() for col in cols]
            prefix = list(accumulate(sorted(counts), initial=0))
            e_x = prefix[total]
            for sy, top, bottom in bounds:
                above = e_x - prefix[total - sy] > top
                below = prefix[sy] < bottom
                if not (above or below):
                    continue  # no Y of this size can violate
                # the lexicographically first violator is the earlier of the
                # first one above top and the first one below bottom
                picks = []
                if above:
                    picks.append(_first_pick_above(counts, sy, top))
                if below:
                    picks.append(_first_pick_above([-c for c in counts], sy, -bottom))
                pick = min(picks)
                y = VertexSet.from_iterable((members_j[idx] for idx in pick), g.n)
                d_xy = Fraction(sum(counts[idx] for idx in pick), sx * sy)
                return PairClassification(
                    IRREGULAR_WITNESSED,
                    PairWitness(
                        x=VertexSet(x_mask, g.n),
                        y=y,
                        d_xy=d_xy,
                        d_ij=Fraction(e_ij, m_ij),
                    ),
                )
    return _REGULAR


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


def classify_pair(g, i, j, eps, cutoff=EXHAUSTIVE_CUTOFF):
    """Check the pair exhaustively when |I| + |J| <= cutoff, else heuristically."""
    if i.size + j.size <= cutoff:
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


def check_partition(g, p, eps, cutoff=EXHAUSTIVE_CUTOFF):
    """Classify every class pair of p (diagonal included), each a <= b once.

    cutoff, 0..EXHAUSTIVE_CUTOFF, is the largest |I| + |J| checked
    exhaustively; 0 leaves every pair to the heuristic. A pair within the
    cutoff whose class sizes alone certify it (_sizes_certify) is skipped. The
    rest go through classify_pair, a <= b in lexicographic order, so the first
    error raised is the one a walk over every pair would raise.
    """
    eps = require_epsilon(eps)
    if not 0 <= cutoff <= EXHAUSTIVE_CUTOFF:
        raise BadParamsError(f"cutoff must be in 0..{EXHAUSTIVE_CUTOFF}, got {cutoff}")
    if p.ground_size != g.n:
        raise InvalidPartitionError("partition does not match the graph")
    lo = {c.size: _min_qualifying_size(eps, c.size) for c in p}

    def decided(s, t):
        return s + t <= cutoff and _sizes_certify(lo[s], s, lo[t], t)

    # per class size s, ascending indices of the classes whose size pair is open
    partners = {s: [b for b, c in enumerate(p) if not decided(s, c.size)] for s in lo}
    flagged = {}
    for a, cls_a in enumerate(p):
        row = partners[cls_a.size]
        for b in row[bisect_left(row, a) :]:
            cls = classify_pair(g, cls_a, p[b], eps, cutoff)
            if cls.kind != REGULAR_CERTIFIED:
                flagged[(a, b)] = cls
    return RegularityReport(partition=p, eps=eps, flagged=flagged)
