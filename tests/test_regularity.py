import random
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_partition
from regpart import (
    BadParamsError,
    EmptySetError,
    Graph,
    InvalidWitnessError,
    PairWitness,
    Partition,
    RegularityReport,
    TooLargeError,
    VertexSet,
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
from regpart.regularity import (
    IRREGULAR_WITNESSED,
    REGULAR_CERTIFIED,
    UNKNOWN_TREATED_AS_REGULAR,
    VERDICT_HEURISTICALLY_REGULAR,
    VERDICT_IRREGULAR,
    VERDICT_REGULAR,
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
        validate_witness(self.g, self.i, self.j, Fraction(2, 5), self.w)

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


class TestCheckPairExhaustive:
    def test_single_edge_witness_order(self):
        g, p = single_edge()
        clf = check_pair_exhaustive(g, p[0], p[1], Fraction(2, 5))
        assert clf.kind == IRREGULAR_WITNESSED
        w = clf.witness
        # first violating pair in size-descending, lexicographic order
        assert w.x.members() == (0,)
        assert w.y.members() == (2,)
        assert w.d_xy == 1
        assert w.d_ij == Fraction(1, 4)

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

    X by size descending, lexicographic within a size; for each X, Y the same
    way; every sub-pair compared with Fractions. Returns (kind,) or
    (kind, x, y, d_xy, d_ij).
    """
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
                for y in ys:
                    d_xy = density(g, x, y)
                    if abs(d_xy - d_ij) > eps:
                        return (IRREGULAR_WITNESSED, x, y, d_xy, d_ij)
    return (REGULAR_CERTIFIED,)


def classification_key(clf):
    w = clf.witness
    return (clf.kind,) if w is None else (clf.kind, w.x, w.y, w.d_xy, w.d_ij)


@st.composite
def class_pairs(draw):
    """A graph with a disjoint or diagonal class pair, sides of 1 to 8."""
    a = draw(st.integers(1, 8))
    diagonal = draw(st.booleans())
    b = 0 if diagonal else draw(st.integers(1, 8))
    n = a + b
    order = draw(st.permutations(range(n)))
    pairs = list(combinations(range(n), 2))
    adjacent = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, on in zip(pairs, adjacent) if on])
    i = VertexSet.from_iterable(order[:a], n)
    j = i if diagonal else VertexSet.from_iterable(order[a:], n)
    return g, i, j


class TestExhaustiveMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        class_pairs(),
        st.sampled_from(
            [Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        ),
    )
    def test_same_kind_and_witness(self, pair, eps):
        g, i, j = pair
        clf = check_pair_exhaustive(g, i, j, eps)
        assert classification_key(clf) == reference_exhaustive(g, i, j, eps)

    def test_lex_first_y_is_not_the_top_counts(self):
        # X = I = {0, 1}; counts into J: 2->2, 3->0, 4->2, 5->0, 6->1.
        # Sizes 5 and 4 cannot violate at eps = 1/8; at size 3 the first
        # violating Y in lexicographic order is {2, 3, 4} (4 edges > 3.75),
        # not the top three by count {2, 4, 6}, and it precedes the first
        # low-side violator {2, 3, 5}.
        g = Graph.from_edges(7, [(0, 2), (0, 4), (1, 2), (1, 4), (1, 6)])
        i = VertexSet.from_iterable([0, 1], 7)
        j = VertexSet.from_iterable(range(2, 7), 7)
        eps = Fraction(1, 8)
        clf = check_pair_exhaustive(g, i, j, eps)
        assert classification_key(clf) == reference_exhaustive(g, i, j, eps)
        w = clf.witness
        assert w.x.members() == (0, 1)
        assert w.y.members() == (2, 3, 4)
        assert (w.d_xy, w.d_ij) == (Fraction(2, 3), Fraction(1, 2))


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


class TestClassifyPair:
    def test_auto_dispatch(self):
        g = Graph.empty(30)
        i = VertexSet.from_iterable(range(14), 30)
        j = VertexSet.from_iterable(range(14, 28), 30)
        # 28 > 26: auto falls back to the heuristic tier
        clf = classify_pair(g, i, j, Fraction(1, 4))
        assert clf.kind == UNKNOWN_TREATED_AS_REGULAR


class TestCheckPartition:
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
        g = Graph.complete(30)
        rep = check_partition(g, Partition.single(30), Fraction(1, 4))
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

    def test_cutoff_zero_makes_no_exhaustive_call(self, monkeypatch):
        # classes of 1, 2, 3 and 8: with cutoff 0 even the size-decided
        # pairs go to the heuristic, which certifies nothing
        calls = []
        kernel = regularity.check_pair_exhaustive

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(regularity, "check_pair_exhaustive", counting)
        g = gnp(14, Fraction(1, 2), seed=4)
        p = Partition.from_sets([[0], [1, 2], [3, 4, 5], list(range(6, 14))], 14)
        rep = check_partition(g, p, Fraction(1, 4), cutoff=0)
        assert calls == []
        assert sorted(rep.flagged) == [(a, b) for a in range(4) for b in range(a, 4)]
        check_partition(g, p, Fraction(1, 4))
        assert calls

    def test_cutoff_range(self, monkeypatch):
        g, p = single_edge()
        for cutoff in (0, 26):
            check_partition(g, p, Fraction(2, 5), cutoff=cutoff)
        # rejected once per call, before any pair is classified
        monkeypatch.setattr(regularity, "classify_pair", None)
        for cutoff in (-1, 27):
            with pytest.raises(BadParamsError, match=f"got {cutoff}"):
                check_partition(g, p, Fraction(2, 5), cutoff=cutoff)

    def test_report_rejects_keys_outside_its_pairs(self):
        g, p = single_edge()
        eps = Fraction(2, 5)
        clf = check_partition(g, p, eps).flagged[(0, 1)]
        assert RegularityReport(p, eps, {(0, 1): clf}).irregular_mass == 8
        # a mirrored key or a class index past k would break mass and lookups
        for key in ((1, 0), (0, 5), (-1, 0)):
            with pytest.raises(InvalidWitnessError):
                RegularityReport(p, eps, {key: clf})


def reference_report(g, p, eps, cutoff):
    """The per-pair definition: classify_pair on every a <= b, mirrored onto (b, a).

    Returns (classifications, irregular_mass, verdict, witnesses, has_unknown);
    the mass and verdict come from the ordered map, the witnesses from a <= b.
    """
    k = len(p)
    upper = {
        (a, b): classify_pair(g, p[a], p[b], eps, cutoff)
        for a in range(k)
        for b in range(a, k)
    }
    full = {
        (a, b): upper[(a, b)] if a <= b else upper[(b, a)].mirrored()
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
def mixed_partitions(draw):
    """A graph on at most 14 vertices; classes of 1, 2 and 3 plus one of 4 to 8."""
    sizes = [draw(st.integers(4, 8))]
    for size in draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=10)):
        if sum(sizes) + size <= 14:
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
        mixed_partitions(),
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
        st.sampled_from([0, 2, 4, 26]),
    )
    def test_same_report(self, graph_partition, eps, cutoff):
        g, p = graph_partition
        expected = reference_report(g, p, eps, cutoff)
        rep = check_partition(g, p, eps, cutoff)
        full = rep.classifications
        assert list(full) == list(expected[0])
        assert (dict(full), rep.irregular_mass, rep.verdict) == expected[:3]
        assert (rep.witnesses(), rep.has_unknown()) == expected[3:]
        assert all(a <= b for a, b in rep.flagged)


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
