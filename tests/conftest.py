"""Shared helpers: seeded random graphs, partitions, refinements and CLI runs."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

import regpart
from regpart import Graph, Partition, VertexSet, adjacent_pair_count
from regpart.regularity import _count_certifies, _min_sizes

EDGE_PROBS = (0.1, 0.3, 0.5, 0.7, 0.9)

# the sweep of the count certificate's soundness properties: sparse, even and
# dense pairs, at the tolerances where the count test fires within the cutoff
COUNT_PROBS = tuple(map(Fraction, ("1/50", "1/20", "1/10", "1/2", "9/10", "19/20", "49/50")))
COUNT_EPS = tuple(map(Fraction, ("1/3", "2/5", "1/2", "2/3", "3/4")))


def random_graph(rng, n):
    rows = [0] * n
    p = rng.choice(EDGE_PROBS)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(rows)


def random_chunks(rng, items, k):
    """Split items into k nonempty runs at random cut points."""
    cuts = sorted(rng.sample(range(1, len(items)), k - 1)) if k > 1 else []
    out = []
    prev = 0
    for cut in cuts + [len(items)]:
        out.append(items[prev:cut])
        prev = cut
    return out


def random_partition(rng, n, max_classes=None):
    vertices = list(range(n))
    rng.shuffle(vertices)
    k = rng.randint(1, min(n, max_classes) if max_classes else n)
    classes = [
        VertexSet.from_iterable(chunk, n)
        for chunk in random_chunks(rng, vertices, k)
    ]
    return Partition(classes)


def random_refinement(rng, p):
    """A partition refining p: each class randomly split in place."""
    n = p.ground_size
    pieces = []
    for cls in p:
        members = list(cls.members())
        rng.shuffle(members)
        k = rng.randint(1, cls.size)
        for chunk in random_chunks(rng, members, k):
            pieces.append(VertexSet.from_iterable(chunk, n))
    return Partition(pieces)


@st.composite
def pairs_at_density(draw, max_n, max_side):
    """A class pair on at most max_n vertices, each edge drawn at one of COUNT_PROBS.

    A quarter of the pairs are diagonal, I = J with at most max_n // 2
    vertices; the rest are disjoint, with sides of at most max_side.
    """
    rng = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from(COUNT_PROBS))
    if draw(st.integers(0, 3)) == 0:
        a, b = draw(st.integers(1, max_n // 2)), 0
    else:
        a = draw(st.integers(1, min(max_side, max_n - 1)))
        b = draw(st.integers(1, min(max_side, max_n - a)))
    n = a + b
    order = list(range(n))
    rng.shuffle(order)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.randrange(p.denominator) < p.numerator
    ]
    g = Graph.from_edges(n, edges)
    i = VertexSet.from_iterable(order[:a], n)
    j = i if b == 0 else VertexSet.from_iterable(order[a:], n)
    return g, i, j


def count_test_holds(g, i, j, eps):
    """The count certificate's test on (I, J), as classify_pair makes it."""
    sizes = _min_sizes(eps, i.size, j.size)
    e = adjacent_pair_count(g, i, j)
    return sizes is not None and _count_certifies(e, i.size * j.size, *sizes, eps)


SRC = Path(regpart.__file__).resolve().parents[1]


def run_fresh(*argv, timeout, flags=()):
    """Run `python [flags] -m regpart argv` in a new interpreter; kill it after timeout s.

    The child imports the regpart under test, and PYTHONOPTIMIZE is cleared
    so that flags alone set its optimization level. Returns the exit code,
    stdout and stderr; a child still running at timeout raises
    subprocess.TimeoutExpired.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "regpart", *map(str, argv)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr
