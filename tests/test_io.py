import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpart import FormatError, Graph, Partition, check_partition, regularize
from regpart import io as regpart_io
from regpart.io import (
    dump_edge_list,
    dump_partition,
    dump_trace_csv,
    load_edge_list,
    load_partition,
    plain,
    report_json,
    trace_json,
)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        g = Graph.from_edges(5, [(0, 3), (1, 2), (3, 4)])
        path = tmp_path / "g.txt"
        dump_edge_list(g, path)
        assert path.read_text() == "0 3\n1 2\n3 4\n"
        assert load_edge_list(path).rows == g.rows

    def test_explicit_n_allows_isolated_tail(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = load_edge_list(path, n=4)
        assert g.n == 4 and g.edge_count == 1

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n0 1\n\n1 2\n")
        assert load_edge_list(path).edge_count == 2

    def test_empty_needs_n(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("")
        with pytest.raises(FormatError, match="explicit vertex count"):
            load_edge_list(path)
        assert load_edge_list(path, n=3).n == 3

    def test_duplicate_rejected_with_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n2 3\n1 0\n")
        with pytest.raises(FormatError, match="line 3"):
            load_edge_list(path)

    def test_loop_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 2\n")
        with pytest.raises(FormatError, match="line 1.*loop"):
            load_edge_list(path)

    def test_junk_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(FormatError, match="expected 'u v'"):
            load_edge_list(path)
        path.write_text("a b\n")
        with pytest.raises(FormatError, match="non-integer"):
            load_edge_list(path)
        path.write_text("-1 2\n")
        with pytest.raises(FormatError, match="negative"):
            load_edge_list(path)

    def test_out_of_range_for_explicit_n(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 9\n")
        with pytest.raises(FormatError, match="out of range"):
            load_edge_list(path, n=4)

    def test_duplicate_names_reversed_first_copy(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 0\n2 3\n\n0 1\n")
        with pytest.raises(FormatError) as info:
            load_edge_list(path)
        assert info.value.line == 4
        assert str(info.value).endswith("duplicate edge 0 1 (first on line 1)")

    def test_junk_line_wins_over_earlier_out_of_range(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 9\n1 2\nx y\n")
        with pytest.raises(FormatError) as info:
            load_edge_list(path, n=4)
        assert info.value.line == 3
        assert "non-integer vertex" in str(info.value)

    def test_far_vertex_builds_no_row_before_rejection(self, tmp_path):
        path = tmp_path / "g.txt"
        far = 10**30
        path.write_text(f"0 1\n0 {far}\n")
        with pytest.raises(FormatError, match="line 2: vertex out of range for n=4"):
            load_edge_list(path, n=4)
        path.write_text(f"0 {far}\n{far} 0\n")
        with pytest.raises(FormatError, match="line 2: duplicate.*first on line 1"):
            load_edge_list(path, n=4)
        path.write_text(f"0 {far}\nx y\n")
        with pytest.raises(FormatError, match="line 2: non-integer"):
            load_edge_list(path)

    def test_vertex_count_limit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(regpart_io, "_MAX_VERTICES", 8)
        path = tmp_path / "g.txt"
        path.write_text("0 7\n")
        assert load_edge_list(path).n == 8
        path.write_text("0 8\n")
        with pytest.raises(FormatError, match="vertex count 9 is too large"):
            load_edge_list(path)
        # vertex 8 is in range for n=9 but deferred: the limit still rejects it
        with pytest.raises(FormatError, match="vertex count 9 is too large"):
            load_edge_list(path, n=9)
        path.write_text("")
        assert load_edge_list(path, n=8).n == 8
        with pytest.raises(FormatError, match="vertex count 9 is too large"):
            load_edge_list(path, n=9)


def reference_load_rows(path, n=None):
    """Line-by-line loader that keeps a `seen` dict of edges: rows, or raises."""
    edges = []
    seen = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 2:
                raise FormatError(
                    f"expected 'u v', got {text!r}", path=path, line=lineno
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(
                    f"non-integer vertex in {text!r}", path=path, line=lineno
                ) from None
            if u < 0 or v < 0:
                raise FormatError(
                    f"negative vertex in {text!r}", path=path, line=lineno
                )
            if u == v:
                raise FormatError(f"loop at vertex {u}", path=path, line=lineno)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise FormatError(
                    f"duplicate edge {u} {v} (first on line {seen[key]})",
                    path=path,
                    line=lineno,
                )
            seen[key] = lineno
            edges.append((u, v, lineno))
    if n is None:
        if not edges:
            raise FormatError(
                "empty edge list needs an explicit vertex count", path=path
            )
        n = max(max(u, v) for u, v, _ in edges) + 1
    rows = [0] * n
    for u, v, lineno in edges:
        if u >= n or v >= n:
            raise FormatError(
                f"vertex out of range for n={n}", path=path, line=lineno
            )
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def load_outcome(load, path, n):
    try:
        return ("rows", load(path, n))
    except FormatError as exc:
        return ("error", str(exc), exc.line)


# Lines that are not a plain valid edge, in the spellings the loader must
# treat exactly as int() and str.split() do.
ODD_LINES = (
    "a b", "1 2 3", "7", "+2 3", "1_0 4", "-1 3", "3 -0", "  ", "0x1 2",
    "\t2\t5 ", "1.0 2", "2000000 3", "3 2000000",
)


VERTEX_NAMES = frozenset(str(v) for v in range(14))


@st.composite
def edge_files(draw):
    """An edge file's text and an explicit n or None.

    Most lines are edges among 0..13, repeated lines come back in either
    orientation, and some lines are odd. Half of the files keep only first
    copies of proper edges, so most of those load. n=None is only drawn
    without a far vertex (2000000), which would build a 2M-vertex graph.
    """
    lines = []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["repeat", "odd"]))
        if kind == "edge":
            u, v = draw(st.integers(0, 13)), draw(st.integers(0, 13))
            lines.append(f"{u} {v}")
        elif kind == "repeat" and lines:
            parts = draw(st.sampled_from(lines)).split()
            lines.append(" ".join(parts[::-1] if draw(st.booleans()) else parts))
        else:
            lines.append(draw(st.sampled_from(ODD_LINES)))
    if draw(st.booleans()):
        seen = set()
        clean = []
        for line in lines:
            ends = frozenset(line.split())
            if len(ends) == 2 and ends <= VERTEX_NAMES and ends not in seen:
                seen.add(ends)
                clean.append(line)
        lines = clean
    far = any("2000000" in line for line in lines)
    n = draw(st.sampled_from([5, 14] if far else [None, None, 5, 10, 14, 20]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return text, n


class TestEdgeListMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(edge_files())
    def test_same_rows_or_same_error(self, case):
        text, n = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            path.write_bytes(text.encode())
            expected = load_outcome(reference_load_rows, path, n)
            got = load_outcome(lambda p, k: load_edge_list(p, k).rows, path, n)
        assert got == expected


class TestPartitionFile:
    def test_round_trip(self, tmp_path):
        p = Partition.from_sets([[0, 2], [1, 3, 4]], 5)
        path = tmp_path / "p.txt"
        dump_partition(p, path)
        assert path.read_text() == "0: 0 2\n1: 1 3 4\n"
        assert load_partition(path) == p

    def test_index_order_enforced(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("1: 0 1\n0: 2 3\n")
        with pytest.raises(FormatError, match="out of order"):
            load_partition(path)

    def test_repeated_vertex(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0: 0 1\n1: 1 2\n")
        with pytest.raises(FormatError, match="repeated"):
            load_partition(path)

    def test_gap_in_cover(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0: 0 5\n")
        with pytest.raises(FormatError, match="cover"):
            load_partition(path)

    def test_empty_class_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0: 0 1\n1:\n")
        with pytest.raises(FormatError, match="no vertices"):
            load_partition(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("")
        with pytest.raises(FormatError, match="empty partition"):
            load_partition(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(FormatError, match="expected 'k:"):
            load_partition(path)


def single_edge_run():
    g = Graph.from_edges(4, [(0, 2)])
    p = Partition.from_sets([[0, 1], [2, 3]], 4)
    return g, p


class TestReportJson:
    def test_shape_and_witness(self):
        g, p = single_edge_run()
        rep = check_partition(g, p, Fraction(2, 5))
        body = report_json(rep)
        assert body["n"] == 4
        assert body["epsilon"] == "2/5"
        assert body["verdict"] == "irregular"
        assert body["irregular_mass"] == 8
        assert body["threshold"] == "32/5"
        assert body["classes"] == [[0, 1], [2, 3]]
        kinds = {tuple(c["pair"]): c["kind"] for c in body["classifications"]}
        assert kinds[(0, 1)] == "irregular_witnessed"
        assert kinds[(0, 0)] == "regular_certified"
        entry = next(c for c in body["classifications"] if c["pair"] == [0, 1])
        assert entry["witness"] == {"x": [0], "y": [2], "d_xy": "1", "d_ij": "1/4"}

    def test_witness_json_strings(self):
        g, p = single_edge_run()
        rep = check_partition(g, p, Fraction(2, 5))
        w = plain(rep.witnesses()[(0, 1)])
        assert Fraction(w["d_xy"]) == 1
        assert Fraction(w["d_ij"]) == Fraction(1, 4)


class TestTrace:
    def test_csv_bytes(self, tmp_path):
        g, p = single_edge_run()
        trace = regularize(g, p, Fraction(2, 5))
        path = tmp_path / "t.csv"
        dump_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,phase,num_classes,energy_num,energy_den,irregular_mass,verdict"
        assert lines[1] == "0,balance,2,1,2,8,irregular"
        assert lines[2] == "1,refine,4,2,1,8,irregular"
        assert lines[3] == "2,balance,4,2,1,0,regular"

    def test_json_mirror(self):
        g, p = single_edge_run()
        trace = regularize(g, p, Fraction(2, 5))
        body = trace_json(trace)
        assert body["refine_count"] == 1
        assert body["status"] == "regular"
        assert body["final"] == [[0], [1], [2], [3]]
        assert [s["phase"] for s in body["steps"]] == ["balance", "refine", "balance"]
        assert body["steps"][1]["energy"] == "2"
