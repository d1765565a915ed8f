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
smaller side, I on a tie. Its witness takes the first violating X of that side
met by size descending, lexicographic within a size. For a fixed X, both tiers
take Y by one rule: the set of the other side farthest from d(I,J) among those
of the largest violating size. The witness is built once, already oriented:
found from J's side, its two sets are swapped back, so X stays in I and Y in
J, and a side that spans its whole class is that class's own VertexSet.
classify_pair routes a pair by one admission rule: when eps|I| >= |I| - 1 and
eps|J| >= |J| - 1, as for any pair of singletons, no sub-pair but (I, J)
itself qualifies, its gap is 0, and the pair is certified at any size without
reading the graph (check_partition makes this test once per pair of class
sizes). Any other pair is exhausted when |I| + |J| <= EXHAUSTIVE_CUTOFF. A
larger one is certified when its edge count e(I,J), or its count of
non-adjacent ordered pairs, is at most eps times the least qualifying mass,
and otherwise goes through a sound but incomplete heuristic, which tries as X
the vertices of I whose degree into J deviates and takes Y by the kernel's
rule; an unresolved pair is reported as "unknown, treated as regular", never
as certified. A partition's report stores each witnessed or unknown pair once,
as (a, b) with a <= b.
"""

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, combinations
from numbers import Rational

from .errors import InvalidWitnessError, TooLargeError, ensure
from .graph import (
    VertexSet,
    adjacent_pair_count,
    require_block,
    require_epsilon,
    require_partition,
)

# The largest |I| + |J| that check_pair_exhaustive enumerates; classify_pair
# routes every larger pair that neither its sizes nor its edge count decide
# to the heuristic.
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


@dataclass(frozen=True)
class PairClassification:
    kind: str
    witness: PairWitness | None = None

    @property
    def is_irregular(self):
        return self.kind == IRREGULAR_WITNESSED


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


def _min_sizes(eps, s, t):
    """(lo_x, lo_y), the least integers above eps * s and eps * t, of an s+t pair.

    None when these sizes alone decide the pair: no sub-pair qualifies, or
    only (I, J), whose gap is 0.
    """
    en, ed = eps.numerator, eps.denominator
    lo_x, lo_y = en * s // ed + 1, en * t // ed + 1
    if lo_x > s or lo_y > t or (lo_x == s and lo_y == t):
        return None
    return lo_x, lo_y


def _count_certifies(e, m, lo_x, lo_y, eps):
    """True when e = e(I,J) alone proves a pair of mass m = |I||J| regular.

    Every qualifying sub-pair has e(X,Y) <= e and |X||Y| >= lo_x lo_y, so
    d(X,Y) and d(I,J) both lie in [0, e/(lo_x lo_y)], and their gap is at
    most eps once e <= eps lo_x lo_y. The non-adjacent ordered pairs, m - e
    of them, bound 1 - d the same way, which covers dense and diagonal pairs.
    """
    return min(e, m - e) * eps.denominator <= eps.numerator * lo_x * lo_y


def _band(e_ij, m_ij, eps):
    """Integers (hi, lo, den) with d(I,J) + eps = hi/den and d(I,J) - eps = lo/den.

    e_ij is the edge count of the pair and m_ij = |I||J|, so comparing a
    density e/m against either bound is one integer cross-multiplication.
    """
    en, ed = eps.numerator, eps.denominator
    return e_ij * ed + en * m_ij, e_ij * ed - en * m_ij, m_ij * ed


def _packed_rows(cols, members):
    """One int per vertex u of members, whose byte t is 1 when u is in cols[t].

    cols are masks over vertex ids, and members lists, ascending, the ids
    they may hold. The ints are the transpose of cols, built without a loop
    over its entries: bin() writes each column, shifted down to the lowest
    member and guarded to one length, as one digit per id of the members'
    span, so the digits of u recur every `step` bytes, one per column. A
    digit is the byte 0x30 or 0x31, and zero takes 0x30 off each byte.
    """
    width = len(cols)
    low = members[0]
    guard = 2 << (members[-1] - low)
    digits = "".join([bin(col >> low | guard) for col in cols]).encode()
    step = len(digits) // width
    last = low + step - 1  # u's digit in the first column is digits[last - u]
    zero = int.from_bytes(b"0" * width, "little")
    return [int.from_bytes(digits[last - u :: step], "little") - zero for u in members]


def _first_violating_x(packs, bits, sx, width, lo_y, hi, lo, den):
    """Mask of the lexicographically first X of sx of the bits that violates.

    packs[k] is the packed row of the vertex bits[k] into J: byte t of it
    is 1 when that vertex is adjacent to member t of J, so the int is width
    = |J| bytes long. The sum of the packs of X holds, byte by byte, the
    count of each member of J into X; a count is at most sx < 256, so none
    carries into the next byte. X violates when e, its edges to the lo_y
    members of J with the most (or the fewest) edges into X, has
    e den > hi sx lo_y (or e den < lo sx lo_y). The combinations of the
    packs and of the bits run in the same order, so X's mask is summed
    only for the X that violates. None when no X does.
    """
    cut = width - lo_y
    top, bottom = hi * sx * lo_y, lo * sx * lo_y
    for xs, x_bits in zip(combinations(packs, sx), combinations(bits, sx)):
        ranked = sorted(sum(xs).to_bytes(width, "little"))
        if sum(ranked[cut:]) * den > top or sum(ranked[:lo_y]) * den < bottom:
            return sum(x_bits)
    return None


def _widest_violation(g, i, j, x_mask, counts, e_ij, lo_y, eps, swap=False):
    """The witness of X = x_mask with the widest violating Y, or None if none.

    counts[t] is the count of the t-th member of J into X, and e_ij the edge
    count of (I, J). For this X, the densest Y of a size are the members of J
    with the most edges into X, and the sparsest those with the fewest, so
    by monotonicity the sizes of at least lo_y at which some Y violates form
    one range from lo_y, read from the prefix sums of the sorted counts. Y
    has the largest such size sy and is the one of that size farthest from
    d(I,J): the densest, or the sparsest when it lies strictly farther,
    ranked by count and then by index. X = I and Y = J are the classes
    themselves, and with swap the witness's two sets are exchanged. No
    Fraction is formed until a witness is returned.
    """
    sx, m_ij = x_mask.bit_count(), i.size * j.size
    hi, lo, den = _band(e_ij, m_ij, eps)
    prefix = list(accumulate(sorted(counts), initial=0))
    total = len(counts)
    e_x = prefix[total]
    hi_sx, lo_sx = hi * sx, lo * sx
    for sy in range(total, lo_y - 1, -1):
        e_dense, e_sparse = e_x - prefix[total - sy], prefix[sy]
        if e_dense * den > hi_sx * sy or e_sparse * den < lo_sx * sy:
            break
    else:
        return None
    # one of the densest and the sparsest Y violates, so the farther one does;
    # a sort with reverse=True is still stable, so ties keep ascending index
    scaled_ij = e_ij * sx * sy
    dense = abs(e_dense * m_ij - scaled_ij) >= abs(e_sparse * m_ij - scaled_ij)
    x = i if sx == i.size else VertexSet(x_mask, g.n)
    if sy == total:
        y = j
    else:
        members_j = j.members()
        pick = sorted(range(total), key=counts.__getitem__, reverse=dense)[:sy]
        y = VertexSet(sum(1 << members_j[t] for t in pick), g.n)
    if swap:
        x, y = y, x
    witness = PairWitness(
        x=x,
        y=y,
        d_xy=Fraction(e_dense if dense else e_sparse, sx * sy),
        d_ij=Fraction(e_ij, m_ij),
    )
    return PairClassification(IRREGULAR_WITNESSED, witness)


def check_pair_exhaustive(g, i, j, eps):
    """Decide pair regularity by subset enumeration at the minimum sizes, in integers.

    Regularity is symmetric, since e(X, Y) = e(Y, X), so the search
    enumerates the smaller side: below, I is that side, the given I on a
    tie. When it is the given J, a certificate carries over as it is, and
    the witness's two sets are swapped back as it is built, so its x lies in
    the given I and its y in the given J.

    Let lo_x and lo_y be the least sizes above eps|I| and eps|J|. e(X, Y) is
    additive over the members of either side, so for a fixed Y the largest
    d(X, Y) over the X of one size is the mean of that many largest
    per-vertex counts into Y: it never rises as the size grows, and the
    smallest never falls. The same holds with X and Y swapped. Hence a pair
    with a violating sub-pair has one with |X| = lo_x and |Y| = lo_y, the X
    sizes with a violation form one range lo_x..s*, and for a fixed X some Y
    violates exactly when the sum of the top or bottom lo_y per-vertex counts
    (prefix sums of the sorted counts) leaves the band. With eps = en/ed and
    e_ij the edge count of the pair, d(I,J) + eps = hi/den and
    d(I,J) - eps = lo/den for integers hi, lo and den = |I||J| ed, so
    e(X, Y) = e violates exactly when e den > hi |X||Y| or
    e den < lo |X||Y|.

    The search tests X = I first, from the per-vertex counts that also give
    e_ij; if some Y violates, s* = |I|. If none does and lo_x = |I|, no
    other X qualifies and the pair is RegularCertified. Otherwise it packs
    each member u of I, once, into one int with one byte per member of J, 1
    where u is adjacent to it, so that the bytes of the sum of X's packs are
    the per-vertex counts into X (_packed_rows, _first_violating_x). A
    scanned X has at most |I| - 1 < EXHAUSTIVE_CUTOFF // 2 members, so no
    count reaches 256 and none carries into the next byte. It scans size
    lo_x in lexicographic order, and if no X there violates, the pair is
    RegularCertified. Else it climbs one size at a time, keeps each size's
    first violating X and stops at the first size with none. The witness's
    X is the first one a walk over X by size descending, lexicographic
    within a size, meets: the first violating X of size s*. Both tests of an
    X and its witness's Y go through one rule, _widest_violation, which the
    heuristic tier shares.
    Two spaces are exhausted before any edge is counted: an empty one, and
    the one-candidate space in which eps|I| < |X| forces X = I and
    eps|J| < |Y| forces Y = J, whose gap |d(I,J) - d(I,J)| is 0.
    The side checks and the size limit come first, so a pair larger than
    EXHAUSTIVE_CUTOFF raises TooLargeError whatever eps is.
    """
    eps = require_epsilon(eps)
    require_block(g, i, j)
    if i.size + j.size > EXHAUSTIVE_CUTOFF:
        raise TooLargeError(
            f"|i| + |j| = {i.size + j.size} exceeds the exhaustive limit "
            f"{EXHAUSTIVE_CUTOFF}"
        )
    swap = i.size > j.size
    if swap:
        i, j = j, i
    sizes = _min_sizes(eps, i.size, j.size)
    if sizes is None:
        return _REGULAR
    lo_x, lo_y = sizes

    members_j = j.members()
    cols = [g.rows[v] & i.mask for v in members_j]
    counts = [col.bit_count() for col in cols]  # into X = I
    e_ij = sum(counts)  # the graph is symmetric
    clf = _widest_violation(g, i, j, i.mask, counts, e_ij, lo_y, eps, swap)
    if clf is not None:
        return clf
    if lo_x == i.size:
        return _REGULAR
    hi, lo, den = _band(e_ij, i.size * j.size, eps)
    members_i = i.members()
    bits_i = [1 << u for u in members_i]
    packs = _packed_rows(cols, members_i)
    x_mask = None
    for size in range(lo_x, i.size):
        found = _first_violating_x(packs, bits_i, size, len(cols), lo_y, hi, lo, den)
        if found is None:
            break
        sx, x_mask = size, found
    if x_mask is None:
        return _REGULAR
    counts = [(col & x_mask).bit_count() for col in cols]
    clf = _widest_violation(g, i, j, x_mask, counts, e_ij, lo_y, eps, swap)
    ensure(
        clf is not None, f"X of size {sx} violated at |Y| = {lo_y} but not on re-check"
    )
    return clf


def find_witness_heuristic(g, i, j, eps):
    """Look for a witness among the vertices of deviating degree; sound but incomplete.

    Counts each vertex of i into j once (the counts sum to e(I, J)) and keeps
    those deviating from d(I,J) by more than eps/2: the high side X+, then
    the low side X-. An X with more than eps|I| members gets one count per
    vertex of j into it, from which the kernel's rule (_widest_violation),
    complete for a fixed X, builds the witness with the widest violating Y.
    With neither X witnessed the pair is UnknownTreatedAsRegular: this tier
    never certifies.
    """
    eps = require_epsilon(eps)
    require_block(g, i, j)
    sizes = _min_sizes(eps, i.size, j.size)
    if sizes is None:
        return _UNKNOWN
    lo_x, lo_y = sizes
    rows, members_j = g.rows, j.members()
    counts = {u: (rows[u] & j.mask).bit_count() for u in i.members()}
    e_ij = sum(counts.values())
    hi, lo, den = _band(e_ij, i.size * j.size, eps / 2)
    # count/size > hi/den, cross-multiplied: exact, and no Fraction per vertex
    hi_j, lo_j = hi * j.size, lo * j.size
    x_hi = sum(1 << u for u, c_u in counts.items() if c_u * den > hi_j)
    x_lo = sum(1 << u for u, c_u in counts.items() if c_u * den < lo_j)
    for x_mask in (x_hi, x_lo):
        if x_mask.bit_count() >= lo_x:
            counts_x = [(rows[v] & x_mask).bit_count() for v in members_j]
            clf = _widest_violation(g, i, j, x_mask, counts_x, e_ij, lo_y, eps)
            if clf is not None:
                return clf
    return _UNKNOWN


def classify_pair(g, i, j, eps):
    """Certify a pair its sizes decide, at any size; exhaust or search the rest.

    Within EXHAUSTIVE_CUTOFF the kernel makes the size test (_min_sizes)
    itself; above it, the test is made here, then the count test
    (_count_certifies) on e(I,J), and only then the heuristic.
    """
    if i.size + j.size <= EXHAUSTIVE_CUTOFF:
        return check_pair_exhaustive(g, i, j, eps)
    eps = require_epsilon(eps)
    require_block(g, i, j)
    sizes = _min_sizes(eps, i.size, j.size)
    if sizes is None:
        return _REGULAR
    e_ij = adjacent_pair_count(g, i, j)
    if _count_certifies(e_ij, i.size * j.size, *sizes, eps):
        return _REGULAR
    return find_witness_heuristic(g, i, j, eps)


@dataclass(frozen=True)
class RegularityReport:
    """Pair-by-pair classification of a partition; the verdict is derived.

    flagged maps each witnessed or unknown pair (a, b), 0 <= a <= b < k, to its
    classification, and any other key raises InvalidWitnessError; every other
    pair is certified regular, and (b, a) is (a, b) with its witness's x and y
    swapped. The partition is epsilon-regular when irregular_mass is at most
    threshold = eps * n^2. The verdict is "regular" only when no pair was left
    unresolved by the heuristic tier.
    """

    partition: object
    eps: Fraction
    flagged: dict

    __hash__ = None  # flagged is a dict, so a generated hash could only raise

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
        full = {}
        for a in k:
            for b in k:
                clf = self.flagged.get((min(a, b), max(a, b)), _REGULAR)
                w = clf.witness
                if a > b and w is not None:
                    clf = replace(clf, witness=replace(w, x=w.y, y=w.x))
                full[(a, b)] = clf
        return full

    def witnesses(self):
        """Witness map {(a, b): PairWitness}, a <= b, over irregular pairs."""
        return {pair: c.witness for pair, c in self.flagged.items() if c.is_irregular}

    def has_unknown(self):
        return any(c.kind == UNKNOWN_TREATED_AS_REGULAR for c in self.flagged.values())


def check_partition(g, p, eps):
    """Classify every class pair of p (diagonal included), each a <= b once.

    A pair that classify_pair would certify by its class sizes alone
    (_min_sizes), at any size, is skipped, testing each size pair once.
    The rest go through classify_pair, a <= b in lexicographic order, so the
    first error raised is the one a walk over every pair would raise.
    """
    eps = require_epsilon(eps)
    require_partition(g, p)
    sizes = {c.size for c in p}
    open_ = {(s, t) for s in sizes for t in sizes if _min_sizes(eps, s, t) is not None}
    # per class size s, ascending indices of the classes whose size pair is open
    partners = {s: [b for b, c in enumerate(p) if (s, c.size) in open_] for s in sizes}
    flagged = {}
    for a, cls_a in enumerate(p):
        row = partners[cls_a.size]
        for b in row[bisect_left(row, a) :]:
            cls = classify_pair(g, cls_a, p[b], eps)
            if cls.kind != REGULAR_CERTIFIED:
                flagged[(a, b)] = cls
    return RegularityReport(partition=p, eps=eps, flagged=flagged)
