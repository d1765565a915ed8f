"""Classify class pairs as epsilon-regular or irregular, with exact witnesses.

A pair (I, J) is epsilon-regular when every sub-pair (X, Y) with |X| > eps|I|
and |Y| > eps|J| has |d(X,Y) - d(I,J)| <= eps. Irregularity is certified by a
witness (X, Y) violating that bound; regularity of a pair is certified only by
exhausting the search space. Pairs too large to exhaust go through a sound but
incomplete heuristic, and an unresolved pair is reported as
"unknown, treated as regular", never as certified.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    EmptySetError,
    InvalidPartitionError,
    InvalidWitnessError,
    TooLargeError,
)
from .graph import VertexSet, density, require_epsilon

DEFAULT_EXHAUSTIVE_CUTOFF = 26

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
    return math.floor(eps * class_size) + 1


def check_pair_exhaustive(g, i, j, eps, cutoff=DEFAULT_EXHAUSTIVE_CUTOFF):
    """Decide pair regularity by complete subset enumeration.

    Enumerates candidate X (then Y) by size descending, lexicographic within a
    size, and returns the first violating sub-pair found. For a fixed X the
    density of (X, Y) is additive over the members of Y, so for each Y-size the
    extreme densities are prefix sums of the sorted per-vertex counts; whole
    Y-size classes that provably contain no violation are skipped without
    changing which witness is found first. Returns RegularCertified only after
    the entire space is exhausted.
    """
    eps = require_epsilon(eps)
    if i.size == 0 or j.size == 0:
        raise EmptySetError("cannot classify a pair with an empty side")
    if i.size + j.size > cutoff:
        raise TooLargeError(
            f"|i| + |j| = {i.size + j.size} exceeds exhaustive cutoff {cutoff}"
        )
    d_ij = density(g, i, j)
    lo_x = _min_qualifying_size(eps, i.size)
    lo_y = _min_qualifying_size(eps, j.size)
    if lo_x > i.size or lo_y > j.size:
        return _REGULAR  # no qualifying sub-pair exists

    members_i = i.members()
    members_j = j.members()
    rows = g.rows
    hi = d_ij + eps
    lo = d_ij - eps

    for sx in range(i.size, lo_x - 1, -1):
        for xs in combinations(members_i, sx):
            x_mask = 0
            for u in xs:
                x_mask |= 1 << u
            counts = [(rows[v] & x_mask).bit_count() for v in members_j]
            prefix = [0]
            for c in sorted(counts):
                prefix.append(prefix[-1] + c)
            total = len(counts)
            for sy in range(j.size, lo_y - 1, -1):
                denom = sx * sy
                max_e = prefix[total] - prefix[total - sy]
                min_e = prefix[sy]
                if not (Fraction(max_e, denom) > hi or Fraction(min_e, denom) < lo):
                    continue  # no Y of this size can violate
                for pick in combinations(range(total), sy):
                    e = sum(counts[idx] for idx in pick)
                    d_xy = Fraction(e, denom)
                    if d_xy > hi or d_xy < lo:
                        y = VertexSet.from_iterable(
                            (members_j[idx] for idx in pick), g.n
                        )
                        x = VertexSet(x_mask, g.n)
                        return PairClassification(
                            IRREGULAR_WITNESSED,
                            PairWitness(x=x, y=y, d_xy=d_xy, d_ij=d_ij),
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
    d_ij = density(g, i, j)
    half = eps / 2
    hi = d_ij + half
    lo = d_ij - half

    x_hi = 0
    x_lo = 0
    jm = j.mask
    for u in i.members():
        d_u = Fraction((g.rows[u] & jm).bit_count(), j.size)
        if d_u > hi:
            x_hi |= 1 << u
        elif d_u < lo:
            x_lo |= 1 << u

    candidates = []
    for x_mask, keep_high in ((x_hi, True), (x_lo, False)):
        if not x_mask:
            continue
        x = VertexSet(x_mask, g.n)
        co = 0
        for v in j.members():
            d_v = Fraction((g.rows[v] & x_mask).bit_count(), x.size)
            if (keep_high and d_v > hi) or (not keep_high and d_v < lo):
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


def classify_pair(g, i, j, eps, strategy="auto", cutoff=DEFAULT_EXHAUSTIVE_CUTOFF):
    """Dispatch one pair to the exhaustive or heuristic tier."""
    if strategy == "exhaustive":
        return check_pair_exhaustive(g, i, j, eps, cutoff)
    if strategy == "heuristic":
        return find_witness_heuristic(g, i, j, eps)
    if strategy == "auto":
        if i.size + j.size <= cutoff:
            return check_pair_exhaustive(g, i, j, eps, cutoff)
        return find_witness_heuristic(g, i, j, eps)
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass(frozen=True)
class RegularityReport:
    """Pair-by-pair classification of a partition plus the partition verdict.

    irregular_mass is the total |I||J| over ordered pairs that carry a
    witness; the partition is epsilon-regular when that mass is at most
    threshold = eps * n^2. The verdict is "regular" only when no pair was left
    unresolved by the heuristic tier.
    """

    partition: object
    eps: Fraction
    threshold: Fraction
    irregular_mass: int
    classifications: dict
    verdict: str

    def witnesses(self):
        """Witness map {(i_idx, j_idx): PairWitness} over irregular pairs."""
        return {
            pair: cls.witness
            for pair, cls in self.classifications.items()
            if cls.is_irregular
        }

    def has_unknown(self):
        return any(
            cls.kind == UNKNOWN_TREATED_AS_REGULAR
            for cls in self.classifications.values()
        )


def check_partition(g, p, eps, strategy="auto", cutoff=DEFAULT_EXHAUSTIVE_CUTOFF):
    """Classify every ordered class pair of p (diagonal included).

    Each unordered pair is classified once and mirrored onto the transposed
    pair (witness (X, Y) becomes (Y, X)), so the symmetric classifications and
    the double-counted mass come out exact by construction. Deterministic for
    a fixed strategy.
    """
    eps = require_epsilon(eps)
    if p.ground_size != g.n:
        raise InvalidPartitionError("partition does not match the graph")
    k = len(p)
    upper = {}
    for a in range(k):
        for b in range(a, k):
            upper[(a, b)] = classify_pair(g, p[a], p[b], eps, strategy, cutoff)
    classifications = {}
    mass = 0
    for a in range(k):
        for b in range(k):
            if a <= b:
                cls = upper[(a, b)]
            else:
                cls = upper[(b, a)].mirrored()
            classifications[(a, b)] = cls
            if cls.is_irregular:
                mass += p[a].size * p[b].size
    n = g.n
    threshold = eps * n * n
    if mass > threshold:
        verdict = VERDICT_IRREGULAR
    elif any(
        cls.kind == UNKNOWN_TREATED_AS_REGULAR for cls in classifications.values()
    ):
        verdict = VERDICT_HEURISTICALLY_REGULAR
    else:
        verdict = VERDICT_REGULAR
    return RegularityReport(
        partition=p,
        eps=eps,
        threshold=threshold,
        irregular_mass=mass,
        classifications=classifications,
        verdict=verdict,
    )
