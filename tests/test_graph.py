import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_partition, random_refinement
from regpart import (
    BadParamsError,
    EmptySetError,
    Graph,
    InvalidPartitionError,
    Partition,
    VertexSet,
    adjacent_pair_count,
    as_fraction,
    density,
    energy,
    require_epsilon,
)
from regpart import graph as regpart_graph
from regpart.errors import BadEpsilonError
from regpart.oracle import DenseMatrix


class TestAsFraction:
    def test_accepts_rational_strings(self):
        assert as_fraction("1/4") == Fraction(1, 4)
        assert as_fraction("0.25") == Fraction(1, 4)
        assert as_fraction("2") == 2
        assert as_fraction(3) == 3
        assert as_fraction(Fraction(7, 3)) == Fraction(7, 3)

    def test_rejects_floats(self):
        with pytest.raises(ValueError, match="float"):
            as_fraction(0.25)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            as_fraction(True)

    def test_rejects_scientific_notation(self):
        with pytest.raises(ValueError):
            as_fraction("1e-3")
        with pytest.raises(ValueError):
            as_fraction("2.5E2")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            as_fraction("one half")
        with pytest.raises(ValueError, match="^not an exact rational: None$"):
            as_fraction(None)

    def test_require_epsilon(self):
        assert require_epsilon("2/5") == Fraction(2, 5)
        with pytest.raises(BadEpsilonError):
            require_epsilon(0)
        with pytest.raises(BadEpsilonError):
            require_epsilon("-1/2")
        with pytest.raises(BadEpsilonError):
            require_epsilon("nope")


class TestVertexSet:
    def test_members_round_trip(self):
        s = VertexSet.from_iterable([5, 1, 3], 8)
        assert s.members() == (1, 3, 5)
        assert len(s) == 3
        assert 3 in s and 2 not in s
        assert list(s) == [1, 3, 5]

    def test_algebra(self):
        a = VertexSet.from_iterable([0, 1, 2], 5)
        b = VertexSet.from_iterable([2, 3], 5)
        assert (a & b).members() == (2,)
        assert (a | b).members() == (0, 1, 2, 3)
        assert (a - b).members() == (0, 1)
        assert a.complement().members() == (3, 4)

    def test_subset(self):
        a = VertexSet.from_iterable([1, 2], 6)
        b = VertexSet.from_iterable([0, 1, 2, 3], 6)
        assert a.issubset(b)
        assert not b.issubset(a)

    def test_capacity_mismatch(self):
        a = VertexSet.from_iterable([1], 4)
        b = VertexSet.from_iterable([1], 5)
        with pytest.raises(ValueError):
            a & b

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSet.from_iterable([4], 4)
        with pytest.raises(ValueError):
            VertexSet(1 << 4, 4)
        with pytest.raises(ValueError, match="^capacity must be >= 0$"):
            VertexSet(0, -1)

    def test_min_member(self):
        assert VertexSet.from_iterable([6, 2], 8).min_member() == 2
        with pytest.raises(EmptySetError):
            VertexSet.empty(8).min_member()

    def test_immutable(self):
        fields_of = [
            (VertexSet.full(4), ("mask", "capacity", "size", "_members")),
            (Graph.complete(3), ("n", "rows", "edge_count")),
            (Partition.single(4), ("classes", "ground_size")),
            (DenseMatrix.zeros(2), ("n", "rows")),
        ]
        for value, names in fields_of:
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(value, name, getattr(value, name))

    def test_members_built_once(self):
        s = VertexSet.from_iterable([7, 0, 3], 9)
        first = s.members()
        assert first == (0, 3, 7)
        assert s.members() is first
        assert tuple(s) == first

    def test_read_members_keep_equality_and_hash(self):
        read = VertexSet.from_iterable([2, 5, 6], 8)
        read.members()
        fresh = VertexSet(read.mask, 8)
        assert read == fresh and fresh == read
        assert hash(read) == hash(fresh)
        assert len({read, fresh}) == 1
        assert read != VertexSet(read.mask, 9)

    def test_members_slot_is_immutable(self):
        s = VertexSet.from_iterable([1, 2], 4)
        with pytest.raises(AttributeError):
            s._members = (3,)
        s.members()
        with pytest.raises(AttributeError):
            s._members = (3,)
        assert s.members() == (1, 2)

    @given(st.integers(0, (1 << 12) - 1), st.integers(0, (1 << 12) - 1))
    def test_inclusion_exclusion(self, m1, m2):
        a, b = VertexSet(m1, 12), VertexSet(m2, 12)
        assert len(a | b) + len(a & b) == len(a) + len(b)
        assert (a - b).size == a.size - (a & b).size


class TestGraph:
    def test_from_edges(self):
        g = Graph.from_edges(4, [(0, 2), (2, 3)])
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)
        assert g.edge_count == 2
        assert g.degree(2) == 2
        assert list(g.edges()) == [(0, 2), (2, 3)]

    def test_duplicate_edges_idempotent(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_rejects_loops_and_range(self):
        # the loop is rejected by the constructor, the one validation path
        with pytest.raises(BadParamsError, match="^loop at vertex 1$"):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(BadParamsError, match=r"^edge \(0, 3\) outside 0..2$"):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(BadParamsError):
            Graph.from_edges(0, [])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([0b1000, 0, 0], "adjacency row 0 has bits outside 0..2"),
            ([0, 1 << 100, 0], "adjacency row 1 has bits outside 0..2"),
            ([0, 0, -1], "adjacency row 2 has bits outside 0..2"),
            ([0, 0, -4], "adjacency row 2 has bits outside 0..2"),
            ([0b110, 0b001, 0b101], "loop at vertex 2"),
        ],
    )
    def test_rejects_bad_rows(self, rows, message):
        with pytest.raises(BadParamsError) as info:
            Graph(rows)
        assert str(info.value) == message

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(BadParamsError):
            Graph([0b010, 0b000, 0b000])

    def test_complete_and_empty(self):
        assert Graph.complete(4).edge_count == 6
        assert Graph.empty(5).edge_count == 0

    def test_asymmetric_pair_in_second_block(self):
        rows = list(Graph.complete(70).rows)
        rows[65] ^= 1 << 68
        with pytest.raises(BadParamsError, match=r"not symmetric at \(65, 68\)$"):
            Graph(rows)


def first_asymmetric_pair(rows):
    """The plain double loop: first (u, v), u < v, with A[u][v] != A[v][u]."""
    n = len(rows)
    for u in range(n):
        for v in range(u + 1, n):
            if (rows[u] >> v) & 1 != (rows[v] >> u) & 1:
                return (u, v)
    return None


def bands(band_chars, min_width):
    """Patch the symmetry check's band-size constants for a with block."""
    return mock.patch.multiple(
        regpart_graph, _BAND_CHARS=band_chars, _MIN_BAND_WIDTH=min_width
    )


class TestSymmetryCheck:
    """The banded symmetry check in Graph agrees with the plain double loop.

    Shrinking graph._BAND_CHARS (and the minimum band width) forces bands of
    one column, of a small odd width and of any width up to n, with a ragged
    last band whenever the width does not divide n, so asymmetric pairs fall
    in different bands, in the same band, or straddle a band edge. The
    default constants check every n here as one band.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_double_loop(self, data):
        n = data.draw(st.integers(1, 70), label="n")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        rows = list(random_graph(random.Random(seed), n).rows)
        flips = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=3,
            ),
            label="flips",
        )
        for u, v in flips:
            if u != v:
                rows[u] ^= 1 << v
        width = data.draw(
            st.sampled_from([None, 1, 3]) | st.integers(1, n), label="width"
        )
        if width is None:
            band_chars = regpart_graph._BAND_CHARS
            min_width = regpart_graph._MIN_BAND_WIDTH
        else:
            # any value in [n * width, n * width + n) gives bands of `width`
            slack = data.draw(st.integers(0, n - 1), label="slack")
            band_chars = n * width + slack
            min_width = 1
        expected = first_asymmetric_pair(rows)
        with bands(band_chars, min_width):
            if expected is None:
                g = Graph(rows)
                assert list(g.edges()) == [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if (rows[u] >> v) & 1
                ]
            else:
                with pytest.raises(BadParamsError) as info:
                    Graph(rows)
                assert str(info.value) == (
                    f"adjacency not symmetric at ({expected[0]}, {expected[1]})"
                )

    @pytest.mark.parametrize(
        "band_chars, min_width", [(10, 1), (30, 1), (1, 4), (100, 1)]
    )
    def test_first_pair_wins_across_bands(self, band_chars, min_width):
        # n = 10 in bands of 1, 3 (ragged: 3+3+3+1), 4 (4+4+2, set by the
        # minimum width) and 10 columns; the two asymmetric pairs lie in
        # different bands for every width below 10, and the later-listed one
        # comes first in row order.
        rows = list(Graph.empty(10).rows)
        rows[9] ^= 1 << 7
        rows[2] ^= 1 << 8
        with bands(band_chars, min_width):
            with pytest.raises(BadParamsError, match=r"symmetric at \(2, 8\)$"):
                Graph(rows)

    def test_default_bands_past_1024_vertices(self):
        # n = 1030 takes bands of 1018 columns and a ragged band of 12.
        n = 1030
        assert regpart_graph._BAND_CHARS // n == 1018
        rows = list(Graph.complete(n).rows)
        assert Graph(rows).edge_count == n * (n - 1) // 2
        rows[1025] ^= 1 << 1029
        with pytest.raises(BadParamsError, match=r"symmetric at \(1025, 1029\)$"):
            Graph(rows)
        rows[3] ^= 1 << 1020
        with pytest.raises(BadParamsError, match=r"symmetric at \(3, 1020\)$"):
            Graph(rows)


class TestPartition:
    def test_canonical_order(self):
        p = Partition.from_sets([[3, 1], [0, 2]], 4)
        assert p[0].members() == (0, 2)
        assert p[1].members() == (1, 3)

    def test_rejects_overlap_and_gaps(self):
        with pytest.raises(InvalidPartitionError):
            Partition.from_sets([[0, 1], [1, 2]], 3)
        with pytest.raises(InvalidPartitionError):
            Partition.from_sets([[0, 1]], 3)
        with pytest.raises(InvalidPartitionError):
            Partition([])

    def test_rejects_empty_class(self):
        with pytest.raises(InvalidPartitionError):
            Partition([VertexSet.full(3), VertexSet.empty(3)])

    @pytest.mark.parametrize(
        "other", [12, None, frozenset({0, 1, 2})], ids=["int", "None", "frozenset"]
    )
    def test_rejects_a_class_that_is_not_a_vertex_set(self, other):
        for classes in ([other], [VertexSet.full(3), other]):
            with pytest.raises(InvalidPartitionError, match="not a VertexSet"):
                Partition(classes)

    def test_rejects_classes_of_different_capacities(self):
        with pytest.raises(InvalidPartitionError, match="mismatched capacities"):
            Partition([VertexSet.full(3), VertexSet(1, 4)])

    def test_single_and_discrete(self):
        assert len(Partition.single(5)) == 1
        assert len(Partition.discrete(5)) == 5
        assert Partition.discrete(5).refines(Partition.single(5))
        assert not Partition.single(5).refines(Partition.discrete(5))

    def test_refines_random(self):
        rng = random.Random(42)
        for _ in range(20):
            n = rng.randint(2, 24)
            p = random_partition(rng, n)
            q = random_refinement(rng, p)
            assert q.refines(p)
            assert q.refines(q)


def partition_from_labels(labels):
    classes = {}
    for v, label in enumerate(labels):
        classes.setdefault(label, []).append(v)
    return Partition.from_sets(classes.values(), len(labels))


@st.composite
def partition_pairs(draw):
    """Two partitions: a coarsening, an unrelated one, or a different n."""
    n = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["coarsening", "unrelated", "other_n"]))
    if kind == "coarsening":
        merge = draw(st.lists(st.integers(0, 2), min_size=5, max_size=5))
        other = [merge[label] for label in labels]
    else:
        size = n if kind == "unrelated" else n + 1
        other = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    return partition_from_labels(labels), partition_from_labels(other)


class TestRefinesProperty:
    @settings(max_examples=300, deadline=None)
    @given(partition_pairs())
    def test_matches_pairwise_definition(self, pair):
        for p, q in (pair, pair[::-1]):
            expected = p.ground_size == q.ground_size and all(
                any(c.issubset(big) for big in q.classes) for c in p.classes
            )
            assert p.refines(q) == expected


class TestDensity:
    def test_single_edge_quarter(self):
        g = Graph.from_edges(4, [(0, 2)])
        i = VertexSet.from_iterable([0, 1], 4)
        j = VertexSet.from_iterable([2, 3], 4)
        assert density(g, i, j) == Fraction(1, 4)
        assert adjacent_pair_count(g, i, j) == 1

    def test_triangle_full_pair(self):
        g = Graph.complete(3)
        v = g.vertex_set()
        assert density(g, v, v) == Fraction(2, 3)

    def test_star_counts(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        hub = VertexSet.from_iterable([0], 4)
        rest = hub.complement()
        assert adjacent_pair_count(g, hub, rest) == 3
        assert density(g, hub, rest) == 1

    def test_empty_side(self):
        g = Graph.complete(3)
        with pytest.raises(EmptySetError):
            density(g, VertexSet.empty(3), g.vertex_set())

    def test_symmetry_random(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 20)
            g = random_graph(rng, n)
            p = random_partition(rng, n, max_classes=4)
            for i in p:
                for j in p:
                    assert density(g, i, j) == density(g, j, i)
                    assert 0 <= density(g, i, j) <= 1


class TestEnergy:
    def test_triangle(self):
        g = Graph.complete(3)
        assert energy(g, Partition.discrete(3)) == 6
        assert energy(g, Partition.single(3)) == 4

    def test_four_cycle_bipartition(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        p = Partition.from_sets([[0, 2], [1, 3]], 4)
        assert energy(g, p) == 8

    def test_single_edge(self):
        g = Graph.from_edges(4, [(0, 2)])
        p = Partition.from_sets([[0, 1], [2, 3]], 4)
        assert energy(g, p) == Fraction(1, 2)

    def test_discrete_is_twice_edges(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(1, 18)
            g = random_graph(rng, n)
            assert energy(g, Partition.discrete(n)) == 2 * g.edge_count

    def test_monotone_under_refinement(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 20)
            g = random_graph(rng, n)
            p = random_partition(rng, n)
            q = random_refinement(rng, p)
            assert energy(g, q) >= energy(g, p)
            assert energy(g, q) <= n * n

    def test_partition_must_match(self):
        with pytest.raises(InvalidPartitionError):
            energy(Graph.empty(3), Partition.single(4))
