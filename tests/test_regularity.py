import hashlib
import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    COUNT_EPS,
    count_test_holds,
    pairs_at_density,
    random_graph,
    random_partition,
)
from regpart import (
    EmptySetError,
    Graph,
    InvalidPartitionError,
    InvalidWitnessError,
    PairWitness,
    Partition,
    RegularityReport,
    TooLargeError,
    VertexSet,
    adjacent_pair_count,
    check_pair_exhaustive,
    check_partition,
    classify_pair,
    density,
    find_witness_heuristic,
    irregularity_refine,
    refine,
    regularity,
    validate_witness,
)
from regpart.generate import gnp
from regpart.io import plain
from regpart.regularity import (
    EXHAUSTIVE_CUTOFF,
    IRREGULAR_WITNESSED,
    REGULAR_CERTIFIED,
    UNKNOWN_TREATED_AS_REGULAR,
    VERDICT_HEURISTICALLY_REGULAR,
    VERDICT_IRREGULAR,
    VERDICT_REGULAR,
    _count_certifies,
)


def single_edge():
    g = Graph.from_edges(4, [(0, 2)])
    p = Partition.from_sets([[0, 1], [2, 3]], 4)
    return g, p


class TestValidateWitness:
    def setup_method(self):
        self.g, self.p = single_edge()
        self.i, self.j = self.p[0], self.p[1]
        self.w = PairWitness(
            x=VertexSet.from_iterable([0], 4),
            y=VertexSet.from_iterable([2], 4),
            d_xy=Fraction(1),
            d_ij=Fraction(1, 4),
        )

    def test_valid(self):
        # one edge in {0} x {2} over 1 pair, one in I x J over 4
        counts = validate_witness(self.g, self.i, self.j, Fraction(2, 5), self.w)
        assert counts == (1, 1, 1, 4)

    def test_too_small_for_large_eps(self):
        # |x| = 1 is not > (3/5)|i| = 6/5
        with pytest.raises(InvalidWitnessError, match="too small"):
            validate_witness(self.g, self.i, self.j, Fraction(3, 5), self.w)

    def test_wrong_density(self):
        bad = PairWitness(self.w.x, self.w.y, Fraction(1, 2), Fraction(1, 4))
        with pytest.raises(InvalidWitnessError, match="recomputation"):
            validate_witness(self.g, self.i, self.j, Fraction(2, 5), bad)

    def test_not_subset(self):
        bad = PairWitness(self.w.y, self.w.y, Fraction(1), Fraction(1, 4))
        with pytest.raises(InvalidWitnessError, match="not contained"):
            validate_witness(self.g, self.i, self.j, Fraction(2, 5), bad)

    def test_empty_witness_set(self):
        # the empty set lies in I, so the emptiness test is the one that fires
        bad = PairWitness(VertexSet.empty(4), self.w.y, Fraction(0), Fraction(1, 4))
        with pytest.raises(InvalidWitnessError, match="nonempty"):
            validate_witness(self.g, self.i, self.j, Fraction(2, 5), bad)

    def test_gap_not_strict(self):
        g = Graph.complete(4)
        i = VertexSet.from_iterable([0, 1], 4)
        j = VertexSet.from_iterable([2, 3], 4)
        w = PairWitness(
            x=VertexSet.from_iterable([0], 4),
            y=VertexSet.from_iterable([2], 4),
            d_xy=Fraction(1),
            d_ij=Fraction(1),
        )
        with pytest.raises(InvalidWitnessError, match="gap"):
            validate_witness(g, i, j, Fraction(1, 4), w)


def fraction_validate_witness(g, i, j, eps, witness):
    """The Fraction form of validate_witness, the reference for the integer one."""
    eps = Fraction(eps)
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


def validation_outcome(validate, g, i, j, eps, witness):
    """None when the witness passes, else the InvalidWitnessError message."""
    try:
        validate(g, i, j, eps, witness)
    except InvalidWitnessError as exc:
        return str(exc)
    return None


@st.composite
def witness_cases(draw):
    """A class pair, a witness on it and an eps.

    eps is drawn below the witness's gap and size ratios (valid unless a
    density is off), exactly at |X|/|I|, |Y|/|J| or the gap (each must fail),
    or at random. Each stored density is exact, off by one edge, or, when it is
    0 or 1, sometimes the int 0 or 1 instead.
    """
    g, i, j = draw(class_pairs())
    x = VertexSet.from_iterable(
        draw(st.lists(st.sampled_from(i.members()), min_size=1, unique=True)), g.n
    )
    y = VertexSet.from_iterable(
        draw(st.lists(st.sampled_from(j.members()), min_size=1, unique=True)), g.n
    )
    d_xy, d_ij = density(g, x, y), density(g, i, j)
    sizes = [Fraction(x.size, i.size), Fraction(y.size, j.size)]
    gap = abs(d_xy - d_ij)
    mode = draw(st.sampled_from(["below", "size", "gap", "random"]))
    if mode == "below":
        scale = draw(
            st.sampled_from([Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)])
        )
        eps = scale * min(sizes + [gap] if gap else sizes)
    elif mode == "size" or (mode == "gap" and not gap):
        eps = draw(st.sampled_from(sizes))
    elif mode == "gap":
        eps = gap
    else:
        eps = draw(st.fractions(Fraction(1, 20), 1, max_denominator=20))
    stored = []
    for d, m in ((d_xy, x.size * y.size), (d_ij, i.size * j.size)):
        change = draw(st.sampled_from(["exact", "exact", "off", "int"]))
        if change == "off":
            d += Fraction(draw(st.sampled_from([-1, 1])), m)
        elif change == "int":
            d = int(d) if d.denominator == 1 else draw(st.sampled_from([0, 1]))
        stored.append(d)
    return g, i, j, eps, PairWitness(x=x, y=y, d_xy=stored[0], d_ij=stored[1])


class TestValidateWitnessMatchesFractions:
    @settings(max_examples=300, deadline=None)
    @given(witness_cases())
    def test_same_outcome_and_message(self, case):
        assert validation_outcome(validate_witness, *case) == validation_outcome(
            fraction_validate_witness, *case
        )

    def test_boundaries_fail(self):
        # I = {0..3}, J = {4, 5}, and X = {0, 1, 2} complete to Y = J:
        # d(X, Y) = 1 and d(I, J) = 3/4, so the gap is 1/4 and |X| = 3/4 |I|
        g = Graph.from_edges(6, [(u, v) for u in range(3) for v in (4, 5)])
        i = VertexSet.from_iterable(range(4), 6)
        j = VertexSet.from_iterable([4, 5], 6)
        x = VertexSet.from_iterable(range(3), 6)
        w = PairWitness(x=x, y=j, d_xy=1, d_ij=Fraction(3, 4))
        validate_witness(g, i, j, Fraction(1, 5), w)
        with pytest.raises(InvalidWitnessError, match="too small"):
            validate_witness(g, i, j, Fraction(3, 4), w)
        with pytest.raises(InvalidWitnessError, match=r"\|1 - 3/4\| = 1/4 not > 1/4"):
            validate_witness(g, i, j, Fraction(1, 4), w)


class TestCheckPairExhaustive:
    def test_single_edge_witness_order(self):
        g, p = single_edge()
        clf = check_pair_exhaustive(g, p[0], p[1], Fraction(2, 5))
        assert clf.kind == IRREGULAR_WITNESSED
        w = clf.witness
        # X = {0} is the first violating X by size descending, and Y = {2}
        # the farthest Y of the largest violating size
        assert w.x.members() == (0,)
        assert w.y.members() == (2,)
        assert w.d_xy == 1
        assert w.d_ij == Fraction(1, 4)

    def test_witness_between_min_and_full_size(self):
        # edges (0, 3) and (0, 4) from I = {0, 1, 2} to J = {3..6} at
        # eps = 1/4, so |X| >= 1 and |Y| >= 2 qualify. X = I stays in the
        # band (d(I, {3, 4}) = 1/3 against d(I, J) = 1/6), and the largest
        # violating X size is 2, strictly between the minimum 1 and |I|; the
        # first such X is {0, 1}, and its farthest Y of the largest violating
        # size, 2, is {3, 4}
        g = Graph.from_edges(7, [(0, 3), (0, 4)])
        i = VertexSet.from_iterable(range(3), 7)
        j = VertexSet.from_iterable(range(3, 7), 7)
        eps = Fraction(1, 4)
        clf = check_pair_exhaustive(g, i, j, eps)
        assert classification_key(clf) == reference_exhaustive(g, i, j, eps)
        w = clf.witness
        assert (w.x.members(), w.y.members()) == ((0, 1), (3, 4))
        assert (w.d_xy, w.d_ij) == (Fraction(1, 2), Fraction(1, 6))

    def test_skewed_irregular_pair_from_its_smaller_side(self):
        # a 22+2 pair from the README's noisy half-graph run (n = 256, seed
        # 1, eps = 1/4): enumerating the 22-vertex side took 1.5-2.0 s; the
        # 2-vertex side is enumerated instead and the witness is mirrored
        n = 256
        rng = random.Random(1)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u + v >= n) != (rng.randrange(8) == 0)
        ]
        g = Graph.from_edges(n, edges)
        i = VertexSet.from_iterable(range(78, 100), n)
        j = VertexSet.from_iterable([173, 181], n)
        eps = Fraction(1, 4)
        start = time.perf_counter()
        clf = check_pair_exhaustive(g, i, j, eps)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"took {elapsed:.2f} s"
        assert clf.kind == IRREGULAR_WITNESSED
        validate_witness(g, i, j, eps, clf.witness)
        assert clf.witness.y == j

    def test_skewed_regular_pair_within_time_budget(self):
        # complete 20+4 at eps = 1/4: certified from X of size 6 alone,
        # not from every X size between 6 and 20
        g = Graph.complete(24)
        i = VertexSet.from_iterable(range(20), 24)
        j = VertexSet.from_iterable(range(20, 24), 24)
        start = time.perf_counter()
        clf = check_pair_exhaustive(g, i, j, Fraction(1, 4))
        elapsed = time.perf_counter() - start
        assert clf.kind == REGULAR_CERTIFIED
        assert elapsed < 1.0, f"took {elapsed:.2f} s"

    def test_single_edge_larger_eps_regular(self):
        # at eps = 3/5 only the full sub-pair qualifies, gap 0
        g, p = single_edge()
        clf = check_pair_exhaustive(g, p[0], p[1], Fraction(3, 5))
        assert clf.kind == REGULAR_CERTIFIED

    def test_vacuous_at_eps_one(self):
        g, p = single_edge()
        assert check_pair_exhaustive(g, p[0], p[1], 1).kind == REGULAR_CERTIFIED

    def test_diagonal_pair(self):
        g = Graph.complete(3)
        v = g.vertex_set()
        assert check_pair_exhaustive(g, v, v, Fraction(1, 2)).kind == REGULAR_CERTIFIED

    def test_empty_side(self):
        g = Graph.complete(3)
        with pytest.raises(EmptySetError):
            check_pair_exhaustive(g, VertexSet.empty(3), g.vertex_set(), 1)

    def test_cutoff(self):
        g = Graph.empty(30)
        i = VertexSet.from_iterable(range(14), 30)
        j = VertexSet.from_iterable(range(14, 28), 30)
        with pytest.raises(TooLargeError):
            check_pair_exhaustive(g, i, j, Fraction(1, 4))

    def test_one_candidate_pair_needs_no_graph(self):
        class RowlessGraph:
            n = 28

            @property
            def rows(self):
                raise AssertionError("adjacency read for a one-candidate pair")

        g = RowlessGraph()
        one, two, three = (VertexSet.from_iterable([v], 28) for v in range(3))
        # 1+1 (and a diagonal singleton): only X = I, Y = J qualify
        assert check_pair_exhaustive(g, one, two, Fraction(1, 4)).kind == REGULAR_CERTIFIED
        assert check_pair_exhaustive(g, one, one, Fraction(1, 4)).kind == REGULAR_CERTIFIED
        # 2+2 at eps = 1/2: |X| > 1 forces X = I, and likewise Y = J
        i = VertexSet.from_iterable([0, 1], 28)
        j = VertexSet.from_iterable([2, 3], 28)
        assert check_pair_exhaustive(g, i, j, Fraction(1, 2)).kind == REGULAR_CERTIFIED
        # the size limit still wins: 14+14 at eps = 99/100 is one candidate too
        i = VertexSet.from_iterable(range(14), 28)
        j = VertexSet.from_iterable(range(14, 28), 28)
        with pytest.raises(TooLargeError):
            check_pair_exhaustive(g, i, j, Fraction(99, 100))

    def test_regular_one_plus_two_pair_enumerates_nothing(self, monkeypatch):
        # X = I is the only X of a 1-vertex side: once its counts stay in
        # the band, the pair is certified without scanning that X again
        calls = []
        monkeypatch.setattr(
            regularity, "combinations", lambda *args: calls.append(args) or iter(())
        )
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        one = VertexSet.from_iterable([0], 3)
        two = VertexSet.from_iterable([1, 2], 3)
        for i, j in ((one, two), (two, one)):
            assert check_pair_exhaustive(g, i, j, Fraction(1, 8)).kind == REGULAR_CERTIFIED
        assert calls == []

    def test_witness_built_in_the_callers_orientation(self):
        # I = {0, 1} and J = {2..5} with edges from both of I to 2 and 3:
        # X = I violates with Y = {2, 3}. Given as (J, I), the 2-vertex side
        # is enumerated and the witness comes out in the caller's orientation
        g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 3)])
        i = VertexSet.from_iterable([0, 1], 6)
        j = VertexSet.from_iterable(range(2, 6), 6)
        eps = Fraction(1, 4)
        w = check_pair_exhaustive(g, j, i, eps).witness
        validate_witness(g, j, i, eps, w)
        assert (w.x.members(), w.y.members()) == ((2, 3), (0, 1))
        assert w.y is i

    def test_witness_with_x_equal_to_i_reuses_i(self):
        g = Graph.from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 3)])
        i = VertexSet.from_iterable([0, 1], 6)
        j = VertexSet.from_iterable(range(2, 6), 6)
        w = check_pair_exhaustive(g, i, j, Fraction(1, 4)).witness
        assert w.x == i and w.x is i
        assert (w.y.members(), w.d_xy, w.d_ij) == ((2, 3), 1, Fraction(1, 2))

    def test_every_witness_validates(self):
        rng = random.Random(23)
        found = 0
        for _ in range(40):
            n = rng.randint(2, 12)
            g = random_graph(rng, n)
            p = random_partition(rng, n, max_classes=3)
            eps = rng.choice([Fraction(1, 4), Fraction(1, 3)])
            for a in range(len(p)):
                for b in range(len(p)):
                    clf = check_pair_exhaustive(g, p[a], p[b], eps)
                    if clf.witness is not None:
                        validate_witness(g, p[a], p[b], eps, clf.witness)
                        found += 1
        assert found > 0


def reference_exhaustive(g, i, j, eps):
    """The plain enumeration the fast kernel must reproduce witness for witness.

    When |I| > |J| this is the reference of (J, I), mirrored. Otherwise X is
    the first violating X by size descending, lexicographic within a size,
    and |Y| the largest violating size for that X. Among the Y of that size
    in lexicographic order, the first of the largest density and the first
    of the smallest are compared, and the one farther from d(I,J) is
    reported, the denser on a tie. Every sub-pair is compared with Fractions.
    Returns (kind,) or (kind, x, y, d_xy, d_ij).
    """
    if i.size > j.size:
        kind, *witness = reference_exhaustive(g, j, i, eps)
        if not witness:
            return (kind,)
        y, x, d_xy, d_ij = witness
        return (kind, x, y, d_xy, d_ij)
    d_ij = density(g, i, j)
    mi, mj = i.members(), j.members()
    ys_by_size = [
        [VertexSet.from_iterable(ys, g.n) for ys in combinations(mj, sy)]
        for sy in range(len(mj), 0, -1)
        if sy > eps * len(mj)
    ]
    for sx in range(len(mi), 0, -1):
        if not sx > eps * len(mi):
            break
        for xs in combinations(mi, sx):
            x = VertexSet.from_iterable(xs, g.n)
            for ys in ys_by_size:
                scored = [(density(g, x, y), y) for y in ys]
                if not any(abs(d_xy - d_ij) > eps for d_xy, _ in scored):
                    continue
                densest = max(scored, key=lambda c: c[0])
                sparsest = min(scored, key=lambda c: c[0])
                d_xy, y = max(densest, sparsest, key=lambda c: abs(c[0] - d_ij))
                return (IRREGULAR_WITNESSED, x, y, d_xy, d_ij)
    return (REGULAR_CERTIFIED,)


def classification_key(clf):
    w = clf.witness
    return (clf.kind,) if w is None else (clf.kind, w.x, w.y, w.d_xy, w.d_ij)


def mirrored(clf):
    """clf as the classification of the transposed pair: x and y swapped."""
    w = clf.witness
    return clf if w is None else replace(clf, witness=replace(w, x=w.y, y=w.x))


@st.composite
def class_pairs(draw):
    """A graph with a class pair: disjoint or diagonal with sides of 1 to 8, or
    skewed, one side of 1 to 12 and the other of 1 to 3, either one first."""
    shape = draw(st.sampled_from(["disjoint", "diagonal", "skewed"]))
    diagonal = shape == "diagonal"
    if shape == "skewed":
        a, b = draw(st.integers(1, 12)), draw(st.integers(1, 3))
        if draw(st.booleans()):
            a, b = b, a
    else:
        a = draw(st.integers(1, 8))
        b = 0 if diagonal else draw(st.integers(1, 8))
    n = a + b
    order = draw(st.permutations(range(n)))
    pairs = list(combinations(range(n), 2))
    adjacent = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, on in zip(pairs, adjacent) if on])
    i = VertexSet.from_iterable(order[:a], n)
    j = i if diagonal else VertexSet.from_iterable(order[a:], n)
    return g, i, j


PAIR_EPS = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]


class TestExhaustiveMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(class_pairs(), st.sampled_from(PAIR_EPS))
    def test_same_kind_and_witness(self, pair, eps):
        g, i, j = pair
        clf = check_pair_exhaustive(g, i, j, eps)
        assert classification_key(clf) == reference_exhaustive(g, i, j, eps)

    @settings(max_examples=150, deadline=None)
    @given(class_pairs(), st.sampled_from(PAIR_EPS))
    def test_transposed_pair_mirrors(self, pair, eps):
        # the smaller side is enumerated either way, I on a tie
        g, i, j = pair
        clf = check_pair_exhaustive(g, i, j, eps)
        transposed = check_pair_exhaustive(g, j, i, eps)
        assert clf.kind == transposed.kind
        if i.size != j.size:
            assert classification_key(transposed) == classification_key(mirrored(clf))

    @staticmethod
    def witness_from_i(edges, n, eps=Fraction(1, 8)):
        """The exhaustive witness of I = {0, 1} against J = {2, ..., n - 1}."""
        g = Graph.from_edges(n, edges)
        i = VertexSet.from_iterable([0, 1], n)
        j = VertexSet.from_iterable(range(2, n), n)
        clf = check_pair_exhaustive(g, i, j, eps)
        assert classification_key(clf) == reference_exhaustive(g, i, j, eps)
        assert clf.witness.x == i
        return clf.witness

    def test_tied_gaps_report_the_densest_y(self):
        # counts into J: 2->2, 3->0, 4->2, 5->0, 6->1. Sizes 5 and 4 cannot
        # violate at eps = 1/8; at size 3 the densest Y {2, 4, 6} (5/6) and
        # the sparsest {3, 5, 6} (1/6) both lie 1/3 from d(I, J) = 1/2, and
        # the densest is reported, not the lexicographically first violator
        # {2, 3, 4} (2/3)
        w = self.witness_from_i([(0, 2), (0, 4), (1, 2), (1, 4), (1, 6)], 7)
        assert w.y.members() == (2, 4, 6)
        assert (w.d_xy, w.d_ij) == (Fraction(5, 6), Fraction(1, 2))

    def test_sparse_y_wins_when_farther(self):
        # counts into J: 2->2, 3->2, 4->1, 5->1, 6->1, d(I, J) = 7/10. At
        # size 3 the densest Y {2, 3, 4} (5/6) violates by 2/15 > 1/8, but
        # the sparsest {4, 5, 6} (1/2) lies farther, 1/5 below
        edges = [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 6)]
        w = self.witness_from_i(edges, 7)
        assert w.y.members() == (4, 5, 6)
        assert (w.d_xy, w.d_ij) == (Fraction(1, 2), Fraction(7, 10))

    def test_densest_y_is_not_the_first_dense_violator(self):
        # counts into J: 2->2, 3->0, 4->2, 5->1, 6->2, 7->0, d(I, J) = 7/12.
        # At size 4 the first violator in lexicographic order is {2, 3, 4, 6}
        # (3/4, 1/6 above); the densest {2, 4, 5, 6} (7/8) lies 7/24 above,
        # farther than the sparsest {2, 3, 5, 7} (3/8, 5/24 below)
        edges = [(0, 2), (0, 4), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6)]
        w = self.witness_from_i(edges, 8)
        assert w.y.members() == (2, 4, 5, 6)
        assert (w.d_xy, w.d_ij) == (Fraction(7, 8), Fraction(7, 12))

    @settings(max_examples=150, deadline=None)
    @given(class_pairs(), st.sampled_from(PAIR_EPS))
    def test_gap_at_least_the_lex_first_violators(self, pair, eps):
        g, i, j = pair
        w = check_pair_exhaustive(g, i, j, eps).witness
        if w is None:
            return
        ys = (VertexSet.from_iterable(c, g.n) for c in combinations(j.members(), w.y.size))
        first = next(y for y in ys if abs(density(g, w.x, y) - w.d_ij) > eps)
        assert abs(w.d_xy - w.d_ij) >= abs(density(g, w.x, first) - w.d_ij)


def popcount_first_violating_x(cols, bits, sx, lo_y, hi, lo, den):
    """The size scan without packed counts: each X ranks |J| popcounts.

    cols are the columns of J restricted to I, and X violates when the
    top (or bottom) lo_y counts into X sum to e with e den > hi sx lo_y
    (or e den < lo sx lo_y).
    """
    cut = len(cols) - lo_y
    top, bottom = hi * sx * lo_y, lo * sx * lo_y
    for xs in combinations(bits, sx):
        x_mask = sum(xs)
        ranked = sorted([(col & x_mask).bit_count() for col in cols])
        if sum(ranked[cut:]) * den > top or sum(ranked[:lo_y]) * den < bottom:
            return x_mask
    return None


@st.composite
def wide_pairs(draw, a, b):
    """A graph with an a+b class pair, either side first, or with a diagonal
    a-class when b is 0."""
    n = a + b
    order = draw(st.permutations(range(n)))
    pairs = list(combinations(range(n), 2))
    adjacent = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, on in zip(pairs, adjacent) if on])
    i = VertexSet.from_iterable(order[:a], n)
    j = VertexSet.from_iterable(order[a:], n) if b else i
    return (g, j, i) if draw(st.booleans()) else (g, i, j)


class TestPackedScan:
    def test_counts_of_the_smaller_side_fit_a_byte(self):
        # the kernel enumerates a side of at most EXHAUSTIVE_CUTOFF // 2
        # vertices and scans X of fewer, so each packed count stays below
        # 256; a wider admission must not carry a count into the next byte
        assert regularity.EXHAUSTIVE_CUTOFF // 2 < 256

    @pytest.mark.parametrize("eps", PAIR_EPS)
    @pytest.mark.parametrize("a, b", [(13, 13), (2, 24), (12, 14), (13, 0)])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_same_mask_as_popcounts_at_every_size(self, a, b, eps, data):
        # pairs at the exhaustive limit, past the reach of reference_exhaustive
        g, given_i, given_j = data.draw(wide_pairs(a, b))
        # the kernel enumerates the smaller side, the given I on a tie
        i, j = given_i, given_j
        if i.size > j.size:
            i, j = j, i
        sizes = regularity._min_sizes(eps, i.size, j.size)
        if sizes is None:
            return
        lo_x, lo_y = sizes
        mi, mj = i.members(), j.members()
        cols = [g.rows[v] & i.mask for v in mj]
        hi, lo, den = regularity._band(
            adjacent_pair_count(g, i, j), i.size * j.size, eps
        )
        bits = [1 << u for u in mi]
        # byte t of u's pack is 1 when u is adjacent to the t-th member of J
        packs = [
            sum(1 << 8 * t for t, v in enumerate(mj) if g.has_edge(u, v)) for u in mi
        ]
        for sx in range(lo_x, i.size):
            band = (lo_y, hi, lo, den)
            packed = regularity._first_violating_x(packs, bits, sx, j.size, *band)
            assert packed == popcount_first_violating_x(cols, bits, sx, *band)

        # the kernel packs the same rows whenever it reaches the scan
        seen = []
        scan = regularity._first_violating_x

        def spy(*args):
            seen.append(args[:2])
            return scan(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regularity, "_first_violating_x", spy)
            check_pair_exhaustive(g, given_i, given_j, eps)
        assert all(args == (packs, bits) for args in seen)


SEARCH_EPS = tuple(map(Fraction, ("1/8", "1/5", "1/4", "1/3", "1/2")))


def degree_deviation_candidates(g, i, j, eps):
    """The (X, Y, d(I,J)) that the heuristic tried before it took the kernel's Y rule.

    X+ (X-) holds the vertices of I whose density into J lies above (below)
    d(I,J) by more than eps/2; each X was paired with the members of J whose
    density into X deviates the same way, then with J itself.
    """
    d_ij = density(g, i, j)
    for sign in (1, -1):

        def beyond(d):
            return sign * (d - d_ij) > eps / 2

        xs = [u for u in i.members() if beyond(density(g, VertexSet.from_iterable([u], g.n), j))]
        if not xs:
            continue
        x = VertexSet.from_iterable(xs, g.n)
        co = [v for v in j.members() if beyond(density(g, x, VertexSet.from_iterable([v], g.n)))]
        for y in ([VertexSet.from_iterable(co, g.n)] if co else []) + [j]:
            yield x, y, d_ij


class TestHeuristic:
    def planted_pair(self):
        # half of I completely joined to J, other half isolated
        edges = [(u, v) for u in range(4) for v in range(8, 16)]
        g = Graph.from_edges(16, edges)
        i = VertexSet.from_iterable(range(8), 16)
        j = VertexSet.from_iterable(range(8, 16), 16)
        return g, i, j

    def test_finds_degree_witness(self):
        g, i, j = self.planted_pair()
        eps = Fraction(1, 4)
        clf = find_witness_heuristic(g, i, j, eps)
        assert clf.kind == IRREGULAR_WITNESSED
        validate_witness(g, i, j, eps, clf.witness)

    def test_falls_back_to_all_of_j(self):
        # X = {0..4} is joined to all of {16..19} and each of 20..31 to one
        # vertex of X. At eps = 1/4, d(X, J) = 32/80 already exceeds
        # d(I,J) + eps = 3/8, so J itself is the widest violating Y: the
        # witness is (X, J), its density taken from the counts of J into X
        edges = [(u, v) for u in range(5) for v in range(16, 20)]
        edges += [(v % 5, v) for v in range(20, 32)]
        g = Graph.from_edges(32, edges)
        i = VertexSet.from_iterable(range(16), 32)
        j = VertexSet.from_iterable(range(16, 32), 32)
        eps = Fraction(1, 4)
        w = find_witness_heuristic(g, i, j, eps).witness
        validate_witness(g, i, j, eps, w)
        assert w.x.members() == (0, 1, 2, 3, 4) and w.y is j
        assert (w.d_xy, w.d_ij) == (Fraction(2, 5), Fraction(1, 8))

    def test_unknown_on_uniform_pair(self):
        g = Graph.complete(8)
        i = VertexSet.from_iterable(range(4), 8)
        j = VertexSet.from_iterable(range(4, 8), 8)
        clf = find_witness_heuristic(g, i, j, Fraction(1, 4))
        assert clf.kind == UNKNOWN_TREATED_AS_REGULAR

    def test_never_contradicts_certified_regular(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 10)
            g = random_graph(rng, n)
            p = random_partition(rng, n, max_classes=2)
            eps = Fraction(1, 4)
            for a in range(len(p)):
                for b in range(len(p)):
                    sure = check_pair_exhaustive(g, p[a], p[b], eps)
                    if sure.kind == REGULAR_CERTIFIED:
                        guess = find_witness_heuristic(g, p[a], p[b], eps)
                        assert guess.kind == UNKNOWN_TREATED_AS_REGULAR

    def test_sets_for_another_graph_raise_before_counting(self):
        g = Graph.empty(30)
        i = VertexSet.from_iterable(range(20), 40)
        j = VertexSet.from_iterable(range(20, 40), 40)
        with pytest.raises(ValueError, match="sized for a different graph"):
            find_witness_heuristic(g, i, j, Fraction(1, 4))

    def test_witnesses_pinned(self):
        # SHA-256 of the classifications of 50 seeded pairs of 14 to 40
        # vertices a side, each with a planted set of I whose edge
        # probability into J is shifted: pins which of X+ and X- wins, the
        # Y that the kernel's rule takes for it, and the densities reported
        rng = random.Random(2024)
        results = []
        for _ in range(50):
            s, t = rng.randint(14, 40), rng.randint(14, 40)
            n = s + t
            order = list(range(n))
            rng.shuffle(order)
            i, j = order[:s], order[s:]
            base = rng.randint(2, 6)
            planted = set(rng.sample(i, rng.randint(1, s // 2)))
            shift = rng.choice((-2, 2))
            edges = []
            for u, v in combinations(range(n), 2):
                across = (u in planted and v in j) or (v in planted and u in j)
                if rng.randrange(8) < base + (shift if across else 0):
                    edges.append((u, v))
            eps = rng.choice([Fraction(1, 8), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3)])
            g = Graph.from_edges(n, edges)
            i, j = VertexSet.from_iterable(i, n), VertexSet.from_iterable(j, n)
            results.append(plain(find_witness_heuristic(g, i, j, eps)))
        assert sum(r["kind"] == IRREGULAR_WITNESSED for r in results) == 27
        digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
        assert digest == "ac065c2d0b30dfbf47a96ffeef26a462e620cbba2aa8b66841ba2ffacdb589e5"

    @settings(max_examples=200, deadline=None)
    @given(pairs_at_density(max_n=56, max_side=40), st.sampled_from(SEARCH_EPS))
    def test_witnesses_wherever_the_degree_candidates_did(self, pair, eps):
        # pairs on both sides of EXHAUSTIVE_CUTOFF, a quarter of them diagonal
        g, i, j = pair
        clf = find_witness_heuristic(g, i, j, eps)
        if clf.is_irregular:
            validate_witness(g, i, j, eps, clf.witness)
        for x, y, d_ij in degree_deviation_candidates(g, i, j, eps):
            try:
                validate_witness(g, i, j, eps, PairWitness(x, y, density(g, x, y), d_ij))
            except InvalidWitnessError:
                continue
            assert clf.is_irregular
            break


class TestWidestViolation:
    @settings(max_examples=150, deadline=None)
    @given(pairs_at_density(max_n=24, max_side=12), st.sampled_from(SEARCH_EPS), st.data())
    def test_matches_every_y(self, pair, eps, data):
        g, i, j = pair
        sizes = regularity._min_sizes(eps, i.size, j.size)
        assume(sizes is not None)
        lo_x, lo_y = sizes
        rng = data.draw(st.randoms(use_true_random=False))
        x = VertexSet.from_iterable(
            rng.sample(i.members(), rng.randint(lo_x, i.size)), g.n
        )
        d_ij = density(g, i, j)
        members_j = j.members()
        # the gap of every Y of at least lo_y members, by size
        gaps = {}
        for sy in range(lo_y, j.size + 1):
            for ys in combinations(members_j, sy):
                y = VertexSet.from_iterable(ys, g.n)
                gaps.setdefault(sy, []).append(abs(density(g, x, y) - d_ij))
        violating = [sy for sy, gs in gaps.items() if max(gs) > eps]

        counts = [(g.rows[v] & x.mask).bit_count() for v in members_j]
        e_ij = adjacent_pair_count(g, i, j)
        clf = regularity._widest_violation(g, i, j, x.mask, counts, e_ij, lo_y, eps)
        if not violating:
            assert clf is None
            return
        w = clf.witness
        assert clf.kind == IRREGULAR_WITNESSED and w.x == x
        assert w.y.size == max(violating)
        assert abs(w.d_xy - w.d_ij) == max(gaps[w.y.size])
        validate_witness(g, i, j, eps, w)


class TestClassifyPair:
    def test_auto_dispatch(self):
        # 28 > 26: past the cutoff, at eps 1/4 the count test needs
        # min(e, m - e) = 94 <= eps * lo_x * lo_y = 4 and fails, so the pair
        # goes to the heuristic tier, which leaves it unknown. The planned
        # spectral bound leaves it unknown too: it needs sigma_max(R)^2 =
        # 11.7 (numpy) <= eps^2 * lo_x * lo_y = 1.
        g = gnp(28, Fraction(1, 2), seed=1)
        i = VertexSet.from_iterable(range(14), 28)
        j = VertexSet.from_iterable(range(14, 28), 28)
        clf = classify_pair(g, i, j, Fraction(1, 4))
        assert clf.kind == UNKNOWN_TREATED_AS_REGULAR

    def test_size_decided_pair_needs_no_graph(self):
        class RowlessGraph:
            n = 28

            @property
            def rows(self):
                raise AssertionError("adjacency read for a size-decided pair")

        # 14+14 is past the cutoff, and at eps = 99/100 only X = I, Y = J
        # qualify: certified by the sizes alone, at any size
        i = VertexSet.from_iterable(range(14), 28)
        j = VertexSet.from_iterable(range(14, 28), 28)
        for eps in (Fraction(99, 100), Fraction(1)):
            clf = classify_pair(RowlessGraph(), i, j, eps)
            assert clf.kind == REGULAR_CERTIFIED

    @pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1)])
    def test_sets_for_another_graph_raise(self, eps):
        g = Graph.empty(30)
        i = VertexSet.from_iterable(range(20), 40)
        j = VertexSet.from_iterable(range(20, 40), 40)
        with pytest.raises(ValueError, match="sized for a different graph"):
            classify_pair(g, i, j, eps)


def first_edges(e, s, t):
    """I = {0..s-1}, J = the next t vertices, and the first e pairs of I x J as edges."""
    n = s + t
    pairs = [(u, v) for u in range(s) for v in range(s, n)]
    g = Graph.from_edges(n, pairs[:e])
    return g, VertexSet.from_iterable(range(s), n), VertexSet.from_iterable(range(s, n), n)


class TestCountCertificate:
    @settings(max_examples=300, deadline=None)
    @given(pairs_at_density(max_n=24, max_side=23), st.sampled_from(COUNT_EPS))
    def test_implies_exhaustive_certificate(self, pair, eps):
        g, i, j = pair
        assert i.size + j.size <= EXHAUSTIVE_CUTOFF
        assume(count_test_holds(g, i, j, eps))
        assert check_pair_exhaustive(g, i, j, eps).kind == REGULAR_CERTIFIED

    def test_boundary_is_certified(self):
        half = Fraction(1, 2)
        # 14+14, past the cutoff: lo_x = lo_y = 8, so eps * lo_x * lo_y = 32,
        # met by 32 adjacent or 32 non-adjacent of the 196 ordered pairs
        for e, certified in ((32, True), (33, False), (163, False), (164, True)):
            g, i, j = first_edges(e, 14, 14)
            assert _count_certifies(e, 196, 8, 8, half) is certified
            kind = classify_pair(g, i, j, half).kind
            assert (kind == REGULAR_CERTIFIED) is certified
        # 12+14, within the cutoff: 28 = eps * 7 * 8 edges, and the kernel
        # certifies the pair on its own
        g, i, j = first_edges(28, 12, 14)
        assert count_test_holds(g, i, j, half)
        assert check_pair_exhaustive(g, i, j, half).kind == REGULAR_CERTIFIED


class TestCheckPartition:
    def test_other_ground_size_rejected(self):
        g, _ = single_edge()
        with pytest.raises(InvalidPartitionError, match="does not match"):
            check_partition(g, Partition.single(5), Fraction(2, 5))

    def test_single_edge_report(self):
        g, p = single_edge()
        rep = check_partition(g, p, Fraction(2, 5))
        assert rep.verdict == VERDICT_IRREGULAR
        assert rep.irregular_mass == 8
        assert rep.threshold == Fraction(32, 5)
        assert set(rep.classifications) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert rep.classifications[(0, 0)].kind == REGULAR_CERTIFIED
        assert rep.classifications[(1, 1)].kind == REGULAR_CERTIFIED

    def test_mirrored_witness(self):
        g, p = single_edge()
        rep = check_partition(g, p, Fraction(2, 5))
        w01 = rep.classifications[(0, 1)].witness
        w10 = rep.classifications[(1, 0)].witness
        assert w10.x == w01.y and w10.y == w01.x
        assert w10.d_xy == w01.d_xy and w10.d_ij == w01.d_ij
        validate_witness(g, p[1], p[0], Fraction(2, 5), w10)

    def test_single_edge_regular_at_large_eps(self):
        g, p = single_edge()
        rep = check_partition(g, p, Fraction(3, 5))
        assert rep.verdict == VERDICT_REGULAR
        assert rep.irregular_mass == 0
        assert rep.witnesses() == {}

    def test_heuristic_verdict(self):
        # One class of 40 is past the cutoff. At eps 1/4 the count test
        # needs min(e, m - e) = 772 <= eps * lo_x * lo_y = 30.25 and fails,
        # and the heuristic finds no witness. The planned spectral bound
        # leaves it unknown too: it needs sigma_max(R)^2 = 35.1 (numpy) <=
        # eps^2 * lo_x * lo_y = 7.6.
        g = gnp(40, Fraction(1, 2), seed=1)
        rep = check_partition(g, Partition.single(40), Fraction(1, 4))
        assert rep.verdict == VERDICT_HEURISTICALLY_REGULAR
        assert rep.has_unknown()

    def test_symmetric_kinds_random(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(2, 14)
            g = random_graph(rng, n)
            p = random_partition(rng, n, max_classes=4)
            rep = check_partition(g, p, Fraction(1, 4))
            k = len(p)
            for a in range(k):
                for b in range(k):
                    assert (
                        rep.classifications[(a, b)].kind
                        == rep.classifications[(b, a)].kind
                    )

    def test_mass_counts_ordered_pairs(self):
        g, p = single_edge()
        rep = check_partition(g, p, Fraction(2, 5))
        mass = sum(
            p[a].size * p[b].size
            for (a, b), clf in rep.classifications.items()
            if clf.is_irregular
        )
        assert mass == rep.irregular_mass == 8

    def test_singleton_partition_makes_no_exhaustive_call(self, monkeypatch):
        # every size pair is (1, 1): decided by size, so the kernel never runs
        calls = []
        kernel = regularity.check_pair_exhaustive

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(regularity, "check_pair_exhaustive", counting)
        g = gnp(30, Fraction(1, 2), seed=1)
        rep = check_partition(g, Partition.discrete(30), Fraction(1, 4))
        assert calls == []
        assert rep.verdict == VERDICT_REGULAR and rep.flagged == {}
        assert len(rep.classifications) == 900

    def test_report_rejects_keys_outside_its_pairs(self):
        g, p = single_edge()
        eps = Fraction(2, 5)
        clf = check_partition(g, p, eps).flagged[(0, 1)]
        assert RegularityReport(p, eps, {(0, 1): clf}).irregular_mass == 8
        # a mirrored key or a class index past k would break mass and lookups
        for key in ((1, 0), (0, 5), (-1, 0)):
            with pytest.raises(InvalidWitnessError):
                RegularityReport(p, eps, {key: clf})


def reference_report(g, p, eps):
    """The per-pair definition: classify_pair on every a <= b, mirrored onto (b, a).

    Returns (classifications, irregular_mass, verdict, witnesses, has_unknown);
    the mass and verdict come from the ordered map, the witnesses from a <= b.
    """
    k = len(p)
    upper = {
        (a, b): classify_pair(g, p[a], p[b], eps)
        for a in range(k)
        for b in range(a, k)
    }
    full = {
        (a, b): upper[(a, b)] if a <= b else mirrored(upper[(b, a)])
        for a in range(k)
        for b in range(k)
    }
    mass = sum(p[a].size * p[b].size for (a, b), c in full.items() if c.is_irregular)
    unknown = any(c.kind == UNKNOWN_TREATED_AS_REGULAR for c in full.values())
    if mass > eps * g.n * g.n:
        verdict = VERDICT_IRREGULAR
    elif unknown:
        verdict = VERDICT_HEURISTICALLY_REGULAR
    else:
        verdict = VERDICT_REGULAR
    witnesses = {pair: c.witness for pair, c in upper.items() if c.is_irregular}
    return full, mass, verdict, witnesses, unknown


@st.composite
def mixed_partitions(draw, large=False):
    """Classes of 1, 2 and 3 plus one of 4 to 8, on at most 14 vertices.

    With large, the big class has 19 to 24 vertices and the graph at most
    28, so some of its pairs exceed EXHAUSTIVE_CUTOFF and go to the heuristic.
    """
    low, high, limit = (19, 24, 28) if large else (4, 8, 14)
    sizes = [draw(st.integers(low, high))]
    for size in draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=10)):
        if sum(sizes) + size <= limit:
            sizes.append(size)
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    pairs = list(combinations(range(n), 2))
    adjacent = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, on in zip(pairs, adjacent) if on])
    cuts = list(accumulate(sizes, initial=0))
    classes = [order[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    return g, Partition.from_sets(classes, n)


class TestCheckPartitionMatchesPerPair:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(mixed_partitions(), mixed_partitions(large=True)),
        st.sampled_from(
            [
                Fraction(1, 8),
                Fraction(1, 4),
                Fraction(1, 3),
                Fraction(1, 2),
                Fraction(2, 3),
                Fraction(99, 100),
                Fraction(1),
            ]
        ),
    )
    def test_same_report(self, graph_partition, eps):
        g, p = graph_partition
        expected = reference_report(g, p, eps)
        rep = check_partition(g, p, eps)
        full = rep.classifications
        assert list(full) == list(expected[0])
        assert (dict(full), rep.irregular_mass, rep.verdict) == expected[:3]
        assert (rep.witnesses(), rep.has_unknown()) == expected[3:]
        assert all(a <= b for a, b in rep.flagged)
        if eps >= Fraction(99, 100):
            # every class has at most 28 vertices, so eps|I| >= |I| - 1 for
            # every class: each pair is certified by its sizes, large or not
            assert rep.flagged == {} and rep.verdict == VERDICT_REGULAR


class TestRefineValidatesOncePerPair:
    @settings(max_examples=100, deadline=None)
    @given(
        mixed_partitions(),
        st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
    )
    def test_one_validation_per_witnessed_pair(self, graph_partition, eps):
        g, p = graph_partition
        rep = check_partition(g, p, eps)
        calls = []
        validate = refine.validate_witness

        def counting(g, i, j, eps, witness):
            calls.append((i, j, witness))
            return validate(g, i, j, eps, witness)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(refine, "validate_witness", counting)
            q = irregularity_refine(g, p, eps, rep.witnesses())
        ordered = {
            pair: c.witness for pair, c in rep.classifications.items() if c.is_irregular
        }
        # one call per witnessed pair a <= b, in key order
        assert calls == [
            (p[a], p[b], w) for (a, b), w in sorted(ordered.items()) if a <= b
        ]
        # the same refinement as from every ordered pair, mirrors included
        assert q == irregularity_refine(g, p, eps, ordered)


class TestValidateWitnessCounts:
    EPS = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]

    @settings(max_examples=100, deadline=None)
    @given(mixed_partitions(), st.sampled_from(EPS))
    def test_returns_fresh_counts(self, graph_partition, eps):
        g, p = graph_partition
        for (a, b), clf in check_partition(g, p, eps).classifications.items():
            if not clf.is_irregular:
                continue
            i, j, w = p[a], p[b], clf.witness
            assert validate_witness(g, i, j, eps, w) == (
                adjacent_pair_count(g, w.x, w.y),
                w.x.size * w.y.size,
                adjacent_pair_count(g, i, j),
                i.size * j.size,
            )

    @settings(max_examples=100, deadline=None)
    @given(mixed_partitions(), st.sampled_from(EPS))
    def test_refine_counts_each_witness_once(self, graph_partition, eps):
        g, p = graph_partition
        witnesses = check_partition(g, p, eps).witnesses()
        calls = []
        count = regularity.adjacent_pair_count

        def counting(g, i, j):
            calls.append((i, j))
            return count(g, i, j)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regularity, "adjacent_pair_count", counting)
            irregularity_refine(g, p, eps, witnesses)
        # e(X, Y) and e(I, J), counted by validate_witness and reused for
        # the increment check
        assert calls == [
            pair
            for (a, b), w in sorted(witnesses.items())
            for pair in ((w.x, w.y), (p[a], p[b]))
        ]
