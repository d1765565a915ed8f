import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_partition
from regpart import (
    Graph,
    InvalidPartitionError,
    InvalidWitnessError,
    NotSubsetError,
    PairWitness,
    Partition,
    VertexSet,
    atom_partition,
    balance_refine,
    check_partition,
    energy,
    irregularity_refine,
    is_balanced,
    validate_witness,
    witness_increment,
)
from regpart.refine import _increment_exceeds


class TestIsBalanced:
    def test_equal_sizes_always_balanced(self):
        p = Partition.from_sets([[0, 1], [2, 3], [4, 5]], 6)
        cert = is_balanced(p, Fraction(1, 100))
        assert cert.balanced
        assert cert.leftover == 0
        assert cert.class_size == 2
        assert len(cert.core) == 3
        assert cert.core == (0, 1, 2)

    def test_covered_mass_maximized(self):
        # sizes 3, 1, 1: the single size-3 class covers more than the two 1s
        p = Partition.from_sets([[0, 1, 2], [3], [4]], 5)
        cert = is_balanced(p, Fraction(1, 2))
        assert cert.class_size == 3
        assert cert.covered == 3
        assert cert.leftover == 2
        assert cert.balanced  # 2 <= 5/2

    def test_tie_prefers_smaller_size(self):
        # 2*2 = 4 = 1*4: tie broken toward size 1
        p = Partition.from_sets([[0, 1], [2, 3], [4], [5], [6], [7]], 8)
        cert = is_balanced(p, 1)
        assert cert.class_size == 1
        assert cert.covered == 4

    def test_unbalanced(self):
        p = Partition.from_sets([[0, 1, 2, 3, 4, 5, 6], [7, 8, 9]], 10)
        cert = is_balanced(p, Fraction(1, 10))
        assert not cert.balanced
        assert cert.leftover == 3
        assert cert.limit == 1


class TestBalanceRefine:
    def test_uneven_split_sizes(self):
        # n=10, two classes of 7 and 3, eps=1/2: t = 5/2, chunks of 3
        p = Partition.from_sets([[0, 1, 2, 3, 4, 5, 6], [7, 8, 9]], 10)
        q = balance_refine(p, Fraction(1, 2))
        assert sorted(c.size for c in q) == [1, 3, 3, 3]
        assert len(q) <= (1 + 2) * len(p)
        assert q.refines(p)
        cert = is_balanced(q, Fraction(1, 2))
        assert cert.balanced and cert.leftover <= 5

    def test_splits_even_when_already_balanced(self):
        # the split itself is unconditional; skipping is the driver's job
        p = Partition.single(4)
        q = balance_refine(p, Fraction(2, 5))
        assert sorted(c.size for c in q) == [2, 2]

    def test_chunks_take_ascending_runs(self):
        p = Partition.from_sets([[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]], 10)
        q = balance_refine(p, Fraction(3, 5))  # t = 3, chunks of 3
        assert q[0].members() == (0, 2, 4)
        members = [c.members() for c in q]
        assert (6, 8) in members and (1, 3, 5) in members and (7, 9) in members

    def test_huge_eps_keeps_classes_whole(self):
        p = Partition.from_sets([[0, 1, 2], [3]], 4)
        q = balance_refine(p, 2)  # t = 4 > every class size
        assert q == p

    def test_random_instances(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(2, 60)
            p = random_partition(rng, n)
            eps = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), 1])
            q = balance_refine(p, eps)
            assert q.refines(p)
            assert len(q) <= (1 + 1 / eps) * len(p)
            assert is_balanced(q, eps).leftover <= eps * n


def signature_atoms(s, sets):
    """Reference atoms: group the members of s by which sets contain them."""
    groups = {}
    for v in s.members():
        signature = tuple(x.mask >> v & 1 for x in sets)
        groups[signature] = groups.get(signature, 0) | 1 << v
    masks = sorted(groups.values(), key=lambda m: m & -m)
    return [VertexSet(m, s.capacity) for m in masks]


class TestAtomPartition:
    def test_worked_example(self):
        s = VertexSet.from_iterable([1, 2, 3, 4, 5, 6], 7)
        c = [
            VertexSet.from_iterable([1, 2, 3], 7),
            VertexSet.from_iterable([3, 4], 7),
        ]
        atoms = atom_partition(s, c)
        assert [a.members() for a in atoms] == [(1, 2), (3,), (4,), (5, 6)]

    def test_empty_collection(self):
        s = VertexSet.from_iterable([2, 5], 6)
        assert atom_partition(s, []) == [s]

    def test_not_subset(self):
        s = VertexSet.from_iterable([0, 1], 4)
        with pytest.raises(NotSubsetError):
            atom_partition(s, [VertexSet.from_iterable([1, 2], 4)])

    def test_duplicates_ignored(self):
        s = VertexSet.full(4)
        x = VertexSet.from_iterable([0, 1], 4)
        assert atom_partition(s, [x, x]) == atom_partition(s, [x])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_signature_grouping(self, data):
        cap = data.draw(st.integers(0, 12))
        s_mask = data.draw(st.integers(0, (1 << cap) - 1))
        s = VertexSet(s_mask, cap)
        # a small pool makes repeated sets likely; masking by s can empty one
        pool = data.draw(st.lists(st.integers(0, (1 << cap) - 1), min_size=1, max_size=4))
        masks = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        c = [VertexSet(m & s_mask, cap) for m in masks]
        assert atom_partition(s, c) == signature_atoms(s, c)

    @settings(max_examples=60)
    @given(st.data())
    def test_atoms_partition_and_bound(self, data):
        cap = data.draw(st.integers(1, 16))
        s_mask = data.draw(st.integers(1, (1 << cap) - 1))
        s = VertexSet(s_mask, cap)
        c = [
            VertexSet(data.draw(st.integers(0, (1 << cap) - 1)) & s_mask, cap)
            for _ in range(data.draw(st.integers(0, 5)))
        ]
        atoms = atom_partition(s, c)
        assert len(atoms) <= 2 ** len(c)
        union = 0
        for a in atoms:
            assert a.size > 0
            assert a.mask & union == 0
            union |= a.mask
        assert union == s.mask
        for x in c:
            covered = sum(a.mask for a in atoms if a.issubset(x))
            assert covered == x.mask


class TestIrregularityRefine:
    def single_edge(self):
        g = Graph.from_edges(4, [(0, 2)])
        p = Partition.from_sets([[0, 1], [2, 3]], 4)
        return g, p

    def test_worked_example(self):
        g, p = self.single_edge()
        eps = Fraction(2, 5)
        rep = check_partition(g, p, eps)
        witnesses = rep.witnesses()
        assert rep.irregular_mass == 8
        q = irregularity_refine(g, p, eps, witnesses)
        assert len(q) == 4
        assert energy(g, q) == 2
        gain = energy(g, q) - energy(g, p)
        assert gain == Fraction(3, 2)
        assert gain > eps**5 * 16  # 512/3125
        assert len(q) <= len(p) * 4 ** len(p)

    def test_witness_increment_value(self):
        w = PairWitness(
            x=VertexSet.from_iterable([0], 4),
            y=VertexSet.from_iterable([2], 4),
            d_xy=Fraction(1),
            d_ij=Fraction(1, 4),
        )
        assert witness_increment(w) == Fraction(9, 16)

    def test_rejects_forged_witness(self):
        g, p = self.single_edge()
        forged = {
            (0, 1): PairWitness(
                x=VertexSet.from_iterable([0], 4),
                y=VertexSet.from_iterable([2], 4),
                d_xy=Fraction(1, 2),  # wrong on purpose
                d_ij=Fraction(1, 4),
            )
        }
        with pytest.raises(InvalidWitnessError):
            irregularity_refine(g, p, Fraction(2, 5), forged)

    def test_rejects_bad_key(self):
        g, p = self.single_edge()
        w = PairWitness(
            x=VertexSet.from_iterable([0], 4),
            y=VertexSet.from_iterable([2], 4),
            d_xy=Fraction(1),
            d_ij=Fraction(1, 4),
        )
        with pytest.raises(InvalidWitnessError):
            irregularity_refine(g, p, Fraction(2, 5), {(0, 5): w})

    def test_rejects_mismatched_partition(self):
        g, _ = self.single_edge()
        with pytest.raises(InvalidPartitionError):
            irregularity_refine(g, Partition.single(5), Fraction(2, 5), {})

    def test_empty_witness_map_is_identity(self):
        g, p = self.single_edge()
        assert irregularity_refine(g, p, Fraction(2, 5), {}) == p

    def test_random_refines_with_quantified_gain(self):
        rng = random.Random(13)
        eps4 = Fraction(1, 4) ** 4
        hits = 0
        for _ in range(25):
            n = rng.randint(4, 14)
            g = random_graph(rng, n)
            p = random_partition(rng, n, max_classes=3)
            rep = check_partition(g, p, Fraction(1, 4))
            witnesses = rep.witnesses()
            if not witnesses:
                continue
            hits += 1
            q = irregularity_refine(g, p, Fraction(1, 4), witnesses)
            assert q.refines(p)
            gain = energy(g, q) - energy(g, p)
            assert gain > eps4 * rep.irregular_mass
            assert len(q) <= len(p) * 4 ** len(p)
        assert hits > 5


@st.composite
def witness_counts(draw):
    """(e_xy, m_xy, e_ij, m_ij) with 0 <= e <= m for both blocks."""
    m_xy, m_ij = draw(st.integers(1, 40)), draw(st.integers(1, 400))
    return draw(st.integers(0, m_xy)), m_xy, draw(st.integers(0, m_ij)), m_ij


class TestIncrementInIntegers:
    EPS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))

    def test_agrees_on_every_reported_witness(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(60):
            n = rng.randint(2, 14)
            g = random_graph(rng, n)
            p = random_partition(rng, n, max_classes=4)
            eps = rng.choice(self.EPS)
            for (a, b), clf in check_partition(g, p, eps).classifications.items():
                if not clf.is_irregular:
                    continue
                w = clf.witness
                counts = validate_witness(g, p[a], p[b], eps, w)
                expected = witness_increment(w) > eps**4 * p[a].size * p[b].size
                assert _increment_exceeds(*counts, eps) == expected
                checked += 1
        assert checked > 20

    @settings(max_examples=300, deadline=None)
    @given(witness_counts(), st.fractions(Fraction(1, 12), 1, max_denominator=12))
    # an increment of exactly eps**4 |I||J|: 4 (3/4 - 1/4)^2 = (1/2)^4 16
    @example((3, 4, 4, 16), Fraction(1, 2))
    def test_agrees_with_fractions(self, counts, eps):
        e_xy, m_xy, e_ij, m_ij = counts
        gap = Fraction(e_xy, m_xy) - Fraction(e_ij, m_ij)
        expected = m_xy * gap * gap > eps**4 * m_ij
        assert _increment_exceeds(*counts, eps) == expected


def test_floor_eps_inverse_fifth():
    # the termination budget used throughout
    assert math.floor((1 / Fraction(2, 5)) ** 5) == 97
    assert math.floor((1 / Fraction(1, 2)) ** 5) == 32
    assert math.floor((1 / Fraction(1)) ** 5) == 1
