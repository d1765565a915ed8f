"""Seeded random graph generators with exact edge probabilities.

Probabilities are exact rationals and each edge decision compares one uniform
integer draw against the probability's numerator, so a fixed seed fixes the
graph without any floating-point rounding in the loop.
"""

import random

from .errors import BadParamsError
from .graph import Graph, as_fraction


def _probability(value, name):
    try:
        p = as_fraction(value)
    except ValueError as exc:
        raise BadParamsError(str(exc)) from exc
    if not 0 <= p <= 1:
        raise BadParamsError(f"{name} must be in [0, 1], got {p}")
    return p


def _bernoulli(rng, p):
    # Uniform draw from 0..q-1 lands below p*q with probability exactly p.
    return rng.randrange(p.denominator) < p.numerator


def gnp(n, p, seed):
    """Uniform random graph: every pair independently an edge with probability p."""
    if n < 1:
        raise BadParamsError(f"n must be >= 1, got {n}")
    p = _probability(p, "p")
    # with one block every pair, in order, is one _bernoulli draw at p_in
    return planted(1, n, p, p, seed)


def planted(blocks, block_size, p_in, p_out, seed):
    """Block-structured random graph: probability p_in inside a block, p_out across.

    Vertex v belongs to block v // block_size; vertices are numbered so each
    block is a contiguous run.
    """
    if blocks < 1:
        raise BadParamsError(f"blocks must be >= 1, got {blocks}")
    if block_size < 1:
        raise BadParamsError(f"block_size must be >= 1, got {block_size}")
    p_in = _probability(p_in, "p_in")
    p_out = _probability(p_out, "p_out")
    n = blocks * block_size
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if u // block_size == v // block_size else p_out
            if _bernoulli(rng, p):
                edges.append((u, v))
    return Graph.from_edges(n, edges)
