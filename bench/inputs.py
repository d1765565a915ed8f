"""Seeded input families for the benchmark, independent of regpart.generate.

Every edge decision is one exact integer draw from random.Random(seed), so a
seed fixes the bytes of every file. Files are written in the formats that
regpart.io reads: "u v" edge lines and "k: v1 v2 ..." partition lines.
"""

import hashlib
import random


def graded_edges(n, seed):
    """Edge {u, v} with probability (u + v) / (2(n - 1)): degree grows with index."""
    rng = random.Random(seed)
    den = 2 * (n - 1)
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.randrange(den) < u + v
    ]


def half_edges(n, seed):
    """Half-graph u ~ v iff u + v >= n, each pair flipped with probability 1/8."""
    rng = random.Random(seed)
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u + v >= n) != (rng.randrange(8) == 0)
    ]


def consecutive_classes(sizes):
    """Classes of consecutive vertices with the given sizes, in order."""
    classes = []
    start = 0
    for size in sizes:
        classes.append(list(range(start, start + size)))
        start += size
    return classes


def edge_list_text(edges):
    return "".join(f"{u} {v}\n" for u, v in edges)


def partition_text(classes):
    return "".join(
        f"{k}: {' '.join(map(str, members))}\n" for k, members in enumerate(classes)
    )


def write_file(path, text):
    """Write text and return its SHA-256 hex digest."""
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
