import ast
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    COUNT_EPS,
    count_test_holds,
    pairs_at_density,
    random_graph,
    random_partition,
    random_refinement,
    record_scans,
)
import regpart
from regpart import (
    EmptySetError,
    Graph,
    InvalidPartitionError,
    Partition,
    TooLargeError,
    VertexSet,
    balance_refine,
    check_pair_exhaustive,
    density,
    energy,
    validate_witness,
)
from regpart.generate import gnp
from regpart.oracle import (
    MAX_BRUTE_SIDE,
    DenseMatrix,
    brute_force_pair_check,
    frobenius_sq,
    inner_product,
    project_block,
    project_partition,
)


class TestDenseMatrix:
    def test_from_graph_symmetric(self):
        m = DenseMatrix.from_graph(Graph.from_edges(3, [(0, 1)]))
        assert m.rows[0][1] == 1 and m.rows[1][0] == 1
        assert m.rows[0][2] == 0 and m.rows[0][0] == 0

    def test_rejects_oversize(self):
        with pytest.raises(TooLargeError):
            DenseMatrix.zeros(257)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            DenseMatrix([[0, 1], [1]])

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            DenseMatrix([[0.5]])

    def test_subtraction(self):
        a = DenseMatrix([[1, 2], [3, 4]])
        b = DenseMatrix([["1/2", 0], [0, 1]])
        assert (a - b).rows[0][0] == Fraction(1, 2)
        assert (a - b).rows[1][1] == 3


class TestProjections:
    def single_edge_matrix(self):
        return DenseMatrix.from_graph(Graph.from_edges(4, [(0, 2)]))

    def test_block_average(self):
        m = self.single_edge_matrix()
        i = VertexSet.from_iterable([0, 1], 4)
        j = VertexSet.from_iterable([2, 3], 4)
        out = project_block(m, i, j)
        for u in range(4):
            for v in range(4):
                expected = Fraction(1, 4) if u in (0, 1) and v in (2, 3) else 0
                assert out.rows[u][v] == expected

    def test_block_idempotent(self):
        m = self.single_edge_matrix()
        i = VertexSet.from_iterable([0, 1], 4)
        j = VertexSet.from_iterable([2, 3], 4)
        once = project_block(m, i, j)
        assert project_block(once, i, j) == once

    def test_block_empty_side(self):
        m = self.single_edge_matrix()
        with pytest.raises(EmptySetError):
            project_block(m, VertexSet.empty(4), VertexSet.full(4))

    def test_zero_matrix_fixed(self):
        z = DenseMatrix.zeros(4)
        assert project_block(z, VertexSet.full(4), VertexSet.full(4)) == z

    def test_partition_discrete_identity(self):
        m = self.single_edge_matrix()
        assert project_partition(m, Partition.discrete(4)) == m

    def test_partition_triangle(self):
        m = DenseMatrix.from_graph(Graph.complete(3))
        out = project_partition(m, Partition.single(3))
        assert all(x == Fraction(2, 3) for row in out.rows for x in row)
        assert frobenius_sq(out) == 4

    def test_partition_four_cycle(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        out = project_partition(DenseMatrix.from_graph(g), Partition.from_sets([[0, 2], [1, 3]], 4))
        assert frobenius_sq(out) == 8

    def test_partition_mismatch(self):
        with pytest.raises(InvalidPartitionError):
            project_partition(DenseMatrix.zeros(4), Partition.single(5))

    def test_partition_idempotent_random(self):
        rng = random.Random(19)
        for _ in range(5):
            n = rng.randint(2, 10)
            m = DenseMatrix(
                [[Fraction(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            )
            p = random_partition(rng, n)
            once = project_partition(m, p)
            assert project_partition(once, p) == once


class TestFrobenius:
    def test_zero(self):
        assert frobenius_sq(DenseMatrix.zeros(3)) == 0

    def test_adjacency_is_twice_edges(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert frobenius_sq(DenseMatrix.from_graph(g)) == 6

    def test_constant_block(self):
        m = project_block(
            DenseMatrix.from_graph(Graph.from_edges(4, [(0, 2)])),
            VertexSet.from_iterable([0, 1], 4),
            VertexSet.from_iterable([2, 3], 4),
        )
        # 2x2 block of 1/4: 4 * (1/4)^2
        assert frobenius_sq(m) == Fraction(1, 4)


class TestPythagoras:
    def test_orthogonality_and_identity(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(2, 16)
            g = random_graph(rng, n)
            p = random_partition(rng, n)
            q = random_refinement(rng, p)
            # many equal-size chunks: energy merges their terms by block mass
            b = balance_refine(p, Fraction(1, 4))
            a = DenseMatrix.from_graph(g)
            mp = project_partition(a, p)
            for r in (q, b):
                mr = project_partition(a, r)
                assert inner_product(mp, mr - mp) == 0
                assert frobenius_sq(mr) == frobenius_sq(mp) + frobenius_sq(mr - mp)
                assert frobenius_sq(mr) == energy(g, r)
            assert frobenius_sq(mp) == energy(g, p)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_energy_on_singleton_heavy_partitions(self, data):
        # energy sums the singleton-singleton blocks as one term and counts a
        # singleton's blocks with a larger class twice; the oracle does neither
        kind = data.draw(st.sampled_from(["singletons", "no singletons", "mixed"]))
        big = st.integers(2, 8)
        if kind == "singletons":
            sizes = [1] * data.draw(st.integers(1, 24))
        elif kind == "no singletons":
            sizes = data.draw(st.lists(big, min_size=1, max_size=5))
        else:
            sizes = data.draw(st.lists(st.just(1) | big, min_size=2, max_size=10))
            sizes += [1, data.draw(big)]
        n = sum(sizes)
        order = data.draw(st.permutations(range(n)))
        pairs = list(combinations(range(n), 2))
        adjacent = data.draw(
            st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
        )
        g = Graph.from_edges(n, [e for e, on in zip(pairs, adjacent) if on])
        starts = [sum(sizes[:k]) for k in range(len(sizes))]
        p = Partition.from_sets(
            [order[s : s + size] for s, size in zip(starts, sizes)], n
        )
        assert energy(g, p) == frobenius_sq(project_partition(DenseMatrix.from_graph(g), p))


@st.composite
def capped_pairs(draw):
    """A random graph with a class pair. Either disjoint, one side up to the
    oracle's cap of 12, the two sides 14 vertices at most, either side the
    larger; or diagonal, I = J with 1 to 7 vertices, so X and Y overlap."""
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 7)), 0
    else:
        big = draw(st.integers(1, MAX_BRUTE_SIDE))
        small = draw(st.integers(1, min(big, 14 - big)))
        a, b = (big, small) if draw(st.booleans()) else (small, big)
    n = a + b
    order = draw(st.permutations(range(n)))
    pairs = list(combinations(range(n), 2))
    adjacent = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, on in zip(pairs, adjacent) if on])
    i = VertexSet.from_iterable(order[:a], n)
    j = i if b == 0 else VertexSet.from_iterable(order[a:], n)
    return g, i, j


class TestBruteForcePairCheck:
    @settings(max_examples=100, deadline=None)
    @given(
        capped_pairs(),
        st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(99, 100)]),
    )
    def test_fast_path_agrees_up_to_cap(self, pair, eps):
        g, i, j = pair
        fast = check_pair_exhaustive(g, i, j, eps)
        slow = brute_force_pair_check(g, i, j, eps)
        assert fast.kind == slow.kind
        # the two visit X in different orders, so only validity is compared
        for clf in (fast, slow):
            if clf.witness is not None:
                validate_witness(g, i, j, eps, clf.witness)

    @settings(max_examples=100, deadline=None)
    @given(pairs_at_density(max_n=14, max_side=MAX_BRUTE_SIDE), st.sampled_from(COUNT_EPS))
    def test_count_certificate_is_regular(self, pair, eps):
        g, i, j = pair
        assume(count_test_holds(g, i, j, eps))
        assert brute_force_pair_check(g, i, j, eps).kind == "regular_certified"

    @pytest.mark.parametrize(
        "eps, kind",
        [(Fraction(1, 4), "irregular_witnessed"), (Fraction(1, 3), "regular_certified")],
    )
    @pytest.mark.parametrize("p", [Fraction(1, 20), Fraction(19, 20)])
    def test_edge_total_skip_agrees(self, p, eps, kind, monkeypatch):
        # the 7+7 pair of gnp(14, p, seed=2) has 2 edges at p = 1/20 and 47
        # at 19/20: the kernel climbs to a witness at eps 1/4 and certifies
        # at eps 1/3, and either way its last size scan walks every X of its
        # size and ranks none, since each X's edge total lies in the window
        g = gnp(14, p, seed=2)
        i = VertexSet.from_iterable(range(7), 14)
        j = VertexSet.from_iterable(range(7, 14), 14)
        scans = record_scans(monkeypatch)
        fast = check_pair_exhaustive(g, i, j, eps)
        assert scans[-1] == (None, [])
        slow = brute_force_pair_check(g, i, j, eps)
        assert fast.kind == slow.kind == kind
        for clf in (fast, slow):
            if clf.witness is not None:
                validate_witness(g, i, j, eps, clf.witness)

    def test_single_edge_agrees(self):
        g = Graph.from_edges(4, [(0, 2)])
        i = VertexSet.from_iterable([0, 1], 4)
        j = VertexSet.from_iterable([2, 3], 4)
        eps = Fraction(2, 5)
        ours = check_pair_exhaustive(g, i, j, eps)
        ref = brute_force_pair_check(g, i, j, eps)
        assert ours.kind == ref.kind == "irregular_witnessed"
        # enumeration orders differ, so witnesses need not match; both must hold up
        validate_witness(g, i, j, eps, ref.witness)
        assert ref.witness.d_ij == density(g, i, j)

    def test_regular_case(self):
        g = Graph.complete(4)
        i = VertexSet.from_iterable([0, 1], 4)
        j = VertexSet.from_iterable([2, 3], 4)
        assert brute_force_pair_check(g, i, j, Fraction(1, 2)).kind == "regular_certified"

    def test_side_cap(self):
        g = Graph.empty(30)
        i = VertexSet.from_iterable(range(13), 30)
        j = VertexSet.from_iterable(range(13, 26), 30)
        with pytest.raises(TooLargeError):
            brute_force_pair_check(g, i, j, Fraction(1, 2))

    def test_empty_side(self):
        g = Graph.empty(4)
        with pytest.raises(EmptySetError):
            brute_force_pair_check(g, VertexSet.empty(4), VertexSet.full(4), 1)


PACKAGE = Path(regpart.__file__).parent


def package_imports(name):
    """Each (module, name) imported by regpart's module name, modules absolute.

    A plain "import m" gives (m, None); "from . import m" gives ("regpart", m).
    """
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: the package has no subpackages
                module = f"regpart.{module}".rstrip(".")
            found.update((module, alias.name) for alias in node.names)
    return found


class TestIndependence:
    """The oracle shares no logic with the fast path, and nothing in the main
    modules may import from it."""

    def test_no_main_module_imports_the_oracle(self):
        for path in PACKAGE.glob("*.py"):
            if path.stem == "oracle":
                continue
            assert not {
                (module, name)
                for module, name in package_imports(path.stem)
                if module.startswith("regpart.oracle")
                or (module == "regpart" and name == "oracle")
            }, path.name

    def test_oracle_imports_only_result_types_and_helpers(self):
        allowed = {
            "regpart.graph": {"VertexSet", "as_fraction", "require_epsilon"},
            "regpart.regularity": {
                "PairClassification",
                "PairWitness",
                "REGULAR_CERTIFIED",
                "IRREGULAR_WITNESSED",
                "UNKNOWN_TREATED_AS_REGULAR",
            },
        }
        for module, name in package_imports("oracle"):
            if module.startswith("regpart") and module != "regpart.errors":
                assert name in allowed.get(module, ()), (module, name)
