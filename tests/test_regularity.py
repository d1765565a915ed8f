import random
from fractions import Fraction

import pytest

from conftest import random_graph, random_partition
from regpart import (
    EmptySetError,
    Graph,
    InvalidWitnessError,
    PairWitness,
    Partition,
    TooLargeError,
    VertexSet,
    check_pair_exhaustive,
    check_partition,
    classify_pair,
    density,
    find_witness_heuristic,
    validate_witness,
)
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
        clf = check_pair_exhaustive(g, i, j, Fraction(1, 4), cutoff=28)
        assert clf.kind == REGULAR_CERTIFIED

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

    def test_bad_strategy(self):
        g, p = single_edge()
        with pytest.raises(ValueError):
            classify_pair(g, p[0], p[1], 1, strategy="guess")
        with pytest.raises(ValueError):
            check_partition(g, p, 1, strategy="guess")


class TestCheckPartition:
    def test_single_edge_report(self):
        g, p = single_edge()
        rep = check_partition(g, p, Fraction(2, 5), strategy="exhaustive")
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
