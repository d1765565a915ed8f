"""Copy, deepcopy and pickle round trips of the package's value types.

Each test is a plain function of plain asserts and nothing is imported from
pytest, so the tests can also be called on an interpreter without pytest.
"""

import collections.abc
import copy
import pickle
from fractions import Fraction
from functools import partial

from regpart import Graph, Partition, VertexSet, check_partition, regularize
from regpart.oracle import DenseMatrix
from regpart.regularity import IRREGULAR_WITNESSED


def pickled(value, protocol):
    return pickle.loads(pickle.dumps(value, protocol))


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{
        f"pickle protocol {protocol}": partial(pickled, protocol=protocol)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


def single_edge():
    g = Graph.from_edges(4, [(0, 2)])
    return g, Partition.from_sets([[0, 1], [2, 3]], 4), Fraction(2, 5)


def values():
    """One value of each round-tripped type, keyed by a name for messages."""
    read = VertexSet.from_iterable([1, 4, 6], 8)
    read.members()
    g, p, eps = single_edge()
    report = check_partition(g, p, eps)
    assert report.flagged[(0, 1)].kind == IRREGULAR_WITNESSED
    return {
        "VertexSet": VertexSet.from_iterable([1, 4, 6], 8),
        "VertexSet with members read": read,
        "Partition": p,
        "DenseMatrix": DenseMatrix([[0, "1/2"], ["1/2", 0]]),
        "RegularityReport with a witness": report,
        "RunTrace": regularize(g, p, eps),
    }


def test_round_trips_give_equal_values():
    for name, value in values().items():
        for how, round_trip in ROUND_TRIPS.items():
            back = round_trip(value)
            assert type(back) is type(value), (name, how)
            assert back == value, (name, how)


def test_round_trips_keep_hashes_and_cached_members():
    for value in (VertexSet.from_iterable([0, 5], 6), Partition.discrete(3)):
        for how, round_trip in ROUND_TRIPS.items():
            assert hash(round_trip(value)) == hash(value), (value, how)
    read = VertexSet.from_iterable([0, 5], 6)
    members = read.members()
    for how, round_trip in ROUND_TRIPS.items():
        back = round_trip(read)
        assert back.size == 2 and back.members() == members, how


def test_graph_round_trip_keeps_rows_and_identity_equality():
    g = Graph.from_edges(5, [(0, 1), (1, 4), (2, 3)])
    for how, round_trip in ROUND_TRIPS.items():
        back = round_trip(g)
        assert (back.rows, back.n, back.edge_count) == (g.rows, 5, 3), how
        assert back != g and back == back, how


def test_report_is_not_hashable():
    g, p, eps = single_edge()
    report = check_partition(g, p, eps)
    assert not isinstance(report, collections.abc.Hashable)
