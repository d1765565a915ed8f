import os
import pickle
import tempfile
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpart import (
    BadParamsError,
    FormatError,
    Graph,
    Partition,
    check_partition,
    regularize,
)
from regpart import io as regpart_io
from regpart.generate import gnp
from regpart.io import (
    dump_edge_list,
    dump_partition,
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

    @pytest.mark.parametrize("n", [300, None])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_any_line_order_and_orientation(self, tmp_path, reverse, swap, n):
        # 300 vertices: rows span up to five 64-bit words
        g = gnp(300, Fraction(1, 2), seed=5)
        lines = [f"{v} {u}\n" if swap else f"{u} {v}\n" for u, v in g.edges()]
        path = tmp_path / "g.txt"
        path.write_text("".join(lines[::-1] if reverse else lines))
        assert load_edge_list(path, n=n).rows == g.rows

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

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n1 \xff2\n")
        with pytest.raises(FormatError) as info:
            load_edge_list(path)
        assert (info.value.path, info.value.line) == (path, 2)
        assert str(info.value) == f"{path}: line 2: byte 0xff is not ASCII"

    def test_non_ascii_utf8_names_its_first_byte(self, tmp_path):
        # "\u00e9" is the UTF-8 bytes c3 a9; "\u0663" (an Arabic-Indic 3,
        # which int() reads from str) is d9 a3
        path = tmp_path / "g.txt"
        path.write_bytes("0 1\n1 \u00e9\n".encode())
        with pytest.raises(FormatError, match="line 2: byte 0xc3 is not ASCII"):
            load_edge_list(path)
        path.write_bytes("0 1\n\u0663 4\n".encode())
        with pytest.raises(FormatError, match="line 2: byte 0xd9 is not ASCII"):
            load_edge_list(path)

    def test_earlier_fault_wins_over_undecodable_byte(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n2 2\n1 \xff2\n")
        with pytest.raises(FormatError, match="line 2: loop at vertex 2"):
            load_edge_list(path)

    def test_duplicate_wins_over_later_undecodable_byte(self, tmp_path):
        # the search for the first copy of the edge must not trip over the
        # bad byte after it
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n1 0\n2 \xff3\n")
        with pytest.raises(FormatError) as info:
            load_edge_list(path)
        assert str(info.value) == f"{path}: line 2: duplicate edge 1 0 (first on line 1)"

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

    def test_rescan_keeps_distinct_edges_apart(self, tmp_path):
        # Every edge on 0..11 once, so many share a sum, a product or a
        # difference; the rescan that a far vertex on the last line forces
        # must not take any of them for a repeat.
        path = tmp_path / "g.txt"
        pairs = [(u, v) for v in range(12) for u in range(v)]
        lines = [f"{v} {u}" if (u + v) % 2 else f"{u} {v}" for u, v in pairs]
        path.write_text("\n".join(lines + ["3 12"]) + "\n")
        with pytest.raises(FormatError) as info:
            load_edge_list(path, n=12)
        assert info.value.line == len(pairs) + 1
        assert str(info.value).endswith("vertex out of range for n=12")

    @pytest.mark.parametrize("first", [1, 7, 40])
    def test_rescan_names_first_line_of_reversed_repeat(self, tmp_path, first):
        path = tmp_path / "g.txt"
        pairs = [(u, v) for v in range(10) for u in range(v)]
        u, v = pairs[first - 1]
        path.write_text("".join(f"{a} {b}\n" for a, b in pairs) + f"{v} {u}\n")
        with pytest.raises(FormatError) as info:
            load_edge_list(path)
        assert info.value.line == len(pairs) + 1
        assert str(info.value).endswith(
            f"duplicate edge {v} {u} (first on line {first})"
        )

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
        # vertex 8 is in range for n=9, but the limit still rejects it
        with pytest.raises(FormatError, match="vertex count 9 is too large"):
            load_edge_list(path, n=9)
        path.write_text("")
        assert load_edge_list(path, n=8).n == 8
        with pytest.raises(FormatError, match="vertex count 9 is too large"):
            load_edge_list(path, n=9)

    @pytest.mark.parametrize(
        "text, n",
        [("0 1\n2 3\n", None), ("0 1\n", 4), ("", 3), ("\n\n", 1)],
    )
    def test_rescan_of_clean_file_is_a_bug(self, tmp_path, text, n):
        # The rescan only names a fault load_edge_list found: on the bytes of
        # a clean file it neither returns nor makes up a FormatError.
        with pytest.raises(AssertionError, match="no fault"):
            regpart_io._raise_first_fault(text.encode(), tmp_path / "g.txt", n)

    def test_no_vertices_is_not_a_file_fault(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("")
        with pytest.raises(BadParamsError, match="at least one vertex"):
            load_edge_list(path, n=0)

    def test_negative_n_without_edges_is_no_vertices(self, tmp_path):
        # no vertex was read, so no vertex is out of range: n=-5 fails as n=0
        path = tmp_path / "g.txt"
        path.write_text("\n")
        with pytest.raises(BadParamsError, match="at least one vertex"):
            load_edge_list(path, n=-5)

    def test_negative_n_with_edges_is_out_of_range(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(FormatError, match="line 1: vertex out of range for n=-5"):
            load_edge_list(path, n=-5)


def reference_load_rows(path, n=None):
    """Line-by-line ASCII loader that keeps a `seen` dict of edges: rows, or raises.

    Lines end at b"\\n" and their tokens are bytes.split's; a line with a
    byte that is not ASCII fails on the first such byte, and a message
    quotes a line of more than 60 characters as the longest prefix of at
    most 60 whose repr has at most 80 characters, then "...".
    """
    edges = []
    seen = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            bad = [b for b in raw if b >= 0x80]
            if bad:
                raise FormatError(
                    f"byte {bad[0]:#04x} is not ASCII", path=path, line=lineno
                )
            text = raw.strip().decode()
            if not text:
                continue
            quoted = repr(text)
            if len(text) > 60:
                cut = text[:60]
                while len(repr(cut)) > 80:
                    cut = cut[:-1]
                quoted = repr(cut) + "..."
            parts = raw.split()
            if len(parts) != 2:
                raise FormatError(
                    f"expected 'u v', got {quoted}", path=path, line=lineno
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(
                    f"non-integer vertex in {quoted}", path=path, line=lineno
                ) from None
            if u < 0 or v < 0:
                raise FormatError(
                    f"negative vertex in {quoted}", path=path, line=lineno
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
# treat exactly as bytes.split() and int() on bytes do. The last two rows
# are where an ASCII format parts from text: "\x0b", "\x0c" and "\r" are
# whitespace but "\x1c" is not; the UTF-8 bytes of "\x85", "\u2028",
# "\u00a0" and the Arabic-Indic digits "\u0663 \u0664" are not ASCII.
ODD_LINES = (
    "a b", "1 2 3", "7", "+2 3", "1_0 4", "-1 3", "3 -0", "  ", "0x1 2",
    "\t2\t5 ", "1.0 2", "2000000 3", "3 2000000",
    "0\x0b1", "0\x0c1", "0\x1c1", "0\x851", "0\u20281", "0\u00a01",
    "\u0663 \u0664", "0\r1",
)

# The line endings of one file: one kind throughout, or all three mixed. A
# bare "\r" does not end a line, so a file of bare-"\r" lines is one line.
NEWLINES = (("\n",), ("\r\n",), ("\r",), ("\n", "\r\n", "\r"))


def joined(draw, lines):
    """lines as one file's text, each ended by a newline of one drawn set.

    The last line's newline is dropped half of the time.
    """
    newlines = draw(st.sampled_from(NEWLINES))
    text = "".join(line + draw(st.sampled_from(newlines)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


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
    return joined(draw, lines), n


def spelled(draw, v):
    return draw(st.sampled_from([str(v), f"0{v}", f"+{v}"]))


@st.composite
def multiword_edge_files(draw):
    """An edge file over vertices 0..200 and an explicit n or None.

    Rows span up to four 64-bit words. Each end of an edge line is spelled
    "7", "07" or "+7", and the ends are separated by a space or a tab, so a
    repeated edge (in either orientation) can be spelled differently from its
    first copy. Some lines are odd. Half of the files keep only first copies
    of proper edges, so most of those load.
    """
    lines = []  # (edge or None, text) in file order
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["repeat", "odd"]))
        edges = [edge for edge, _ in lines if edge is not None]
        if kind == "edge":
            edge = draw(st.integers(0, 200)), draw(st.integers(0, 200))
        elif kind == "repeat" and edges:
            edge = draw(st.sampled_from(edges))
            edge = edge[::-1] if draw(st.booleans()) else edge
        else:
            lines.append((None, draw(st.sampled_from(ODD_LINES))))
            continue
        sep = draw(st.sampled_from([" ", "\t", " \t "]))
        lines.append((edge, sep.join(spelled(draw, v) for v in edge)))
    if draw(st.booleans()):
        seen = set()
        clean = []
        for edge, text in lines:
            if edge is not None and edge[0] != edge[1] and frozenset(edge) not in seen:
                seen.add(frozenset(edge))
                clean.append((edge, text))
        lines = clean
    far = any("2000000" in text for _, text in lines)
    n = draw(st.sampled_from([150, 201] if far else [None, None, 150, 201, 256]))
    return joined(draw, [text for _, text in lines]), n


def assert_matches_reference(case):
    text, n = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_bytes(text.encode())
        expected = load_outcome(reference_load_rows, path, n)
        got = load_outcome(lambda p, k: load_edge_list(p, k).rows, path, n)
    assert got == expected


class TestEdgeListMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(edge_files())
    def test_same_rows_or_same_error(self, case):
        assert_matches_reference(case)

    @settings(max_examples=300, deadline=None)
    @given(multiword_edge_files())
    def test_multiword_same_rows_or_same_error(self, case):
        assert_matches_reference(case)


@pytest.fixture(scope="class")
def split_every_file():
    """Parse every edge file in two halves, the second in a forked child."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regpart_io, "_SPLIT_MIN_CHARS", 0)
        yield


@pytest.mark.usefixtures("split_every_file")
class TestSplitEdgeListMatchesReference:
    """Both properties above, with every file parsed in two processes."""

    @settings(max_examples=300, deadline=None)
    @given(edge_files())
    def test_same_rows_or_same_error(self, case):
        assert_matches_reference(case)

    @settings(max_examples=300, deadline=None)
    @given(multiword_edge_files())
    def test_multiword_same_rows_or_same_error(self, case):
        assert_matches_reference(case)


class TestParseFeeds:
    """Each part of an edge file is parsed by one _parse_rows call on its bytes."""

    EDGES = [(0, 1), (1, 2), (2, 5), (4, 3)]
    LF = "".join(f"{u} {v}\n" for u, v in EDGES)
    ROWS = Graph.from_edges(6, EDGES).rows

    @pytest.fixture
    def parses(self, monkeypatch):
        """The data of each _parse_rows call made in this process."""
        calls = []
        parse_rows = regpart_io._parse_rows

        def recorded(data, n):
            calls.append(data)
            return parse_rows(data, n)

        monkeypatch.setattr(regpart_io, "_parse_rows", recorded)
        return calls

    def load_text(self, tmp_path, text, n=None):
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode())
        return load_outcome(lambda p, k: load_edge_list(p, k).rows, path, n)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_clean_ascii_file_is_parsed_once_as_bytes(self, tmp_path, parses, newline):
        text = self.LF.replace("\n", newline)
        assert self.load_text(tmp_path, text) == ("rows", self.ROWS)
        assert parses == [text.encode()]

    def test_split_clean_file_parses_the_first_half_once_as_bytes(
        self, tmp_path, parses, monkeypatch
    ):
        monkeypatch.setattr(regpart_io, "_SPLIT_MIN_CHARS", 0)
        assert self.load_text(tmp_path, self.LF) == ("rows", self.ROWS)
        # the second half is parsed in the forked child
        data = self.LF.encode()
        assert parses == [data[: data.index(b"\n", len(data) // 2) + 1]]

    @pytest.mark.parametrize(
        "spelling",
        [
            lambda text: text.replace("\n", "\r"),
            lambda text: text.replace(" ", "\x1c"),
        ],
        ids=["bare CR", "FS"],
    )
    def test_fault_is_parsed_once_then_rescanned(self, tmp_path, parses, spelling):
        # a file with no valid line end or separator is one malformed line
        got = self.load_text(tmp_path, spelling(self.LF))
        assert got == load_outcome(reference_load_rows, tmp_path / "g.txt", None)
        assert got[0] == "error" and got[2] == 1
        assert len(parses) == 1

    @pytest.mark.parametrize("bad", ["x y\n", "1 0\n", "3 3\n", "1 2 3\n"])
    def test_fault_is_decided_by_the_text_feed(self, tmp_path, parses, bad):
        # the bytes parse only finds that the file has a fault; the error and
        # its line come from the rescan of the file's lines, the text feed
        got = self.load_text(tmp_path, self.LF + bad)
        assert got == load_outcome(reference_load_rows, tmp_path / "g.txt", None)
        assert got[0] == "error" and got[2] == 5
        assert len(parses) == 1


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitEdgeList:
    """A file of _SPLIT_MIN_CHARS bytes or more is parsed in two processes."""

    N = 300

    @pytest.fixture
    def edge_file(self, tmp_path, monkeypatch):
        """gnp(300, 1/2) as an edge file, split wherever it is loaded."""
        monkeypatch.setattr(regpart_io, "_SPLIT_MIN_CHARS", 0)
        self.g = gnp(self.N, Fraction(1, 2), seed=5)
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in self.g.edges()))
        return path

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children load_edge_list forks.

        From Python 3.12 on, a fork in a process with more than one thread
        warns; no fork may. The warning is recorded here, because CPython
        drops the error that -W error::DeprecationWarning makes of it.
        """
        pids = []
        warned = []
        fork = os.fork

        def counted():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", DeprecationWarning)
                pid = fork()
            if pid:
                pids.append(pid)
                warned.extend(str(w.message) for w in caught)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        yield pids
        assert warned == []

    def test_split_load_forks_one_child_and_reaps_it(self, edge_file, forks):
        assert load_edge_list(edge_file).rows == self.g.rows
        assert len(forks) == 1
        assert_no_child_left()

    def test_default_size_parses_small_files_whole(self, edge_file, monkeypatch):
        monkeypatch.undo()
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert edge_file.stat().st_size < regpart_io._SPLIT_MIN_CHARS
        assert load_edge_list(edge_file).rows == self.g.rows

    @pytest.mark.parametrize(
        "bad", ["{v} {u}", "x y", "7 7", "0 {n}", "1 2 3", "-1 2"]
    )
    def test_fault_in_second_half_only(self, edge_file, bad):
        # "{v} {u}" repeats the first line's edge, reversed: each half alone
        # is clean, so only the OR of the halves' rows can find it
        u, v = next(self.g.edges())
        with edge_file.open("a") as fh:
            fh.write(bad.format(u=u, v=v, n=self.N) + "\n")
        expected = load_outcome(reference_load_rows, edge_file, self.N)
        assert expected[0] == "error"
        assert expected[2] == self.g.edge_count + 1
        got = load_outcome(lambda p, k: load_edge_list(p, k).rows, edge_file, self.N)
        assert got == expected
        assert_no_child_left()

    def test_undecodable_byte_in_second_half(self, edge_file, forks):
        with edge_file.open("ab") as fh:
            fh.write(b"\xe9 1\n")
        with pytest.raises(FormatError) as info:
            load_edge_list(edge_file)
        assert info.value.line == self.g.edge_count + 1
        assert str(info.value).endswith("byte 0xe9 is not ASCII")
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("text", ["0 1\n", "0 1\r1 2\r"])
    def test_no_newline_past_the_middle_means_no_fork(
        self, tmp_path, monkeypatch, text
    ):
        # from its middle byte on, a one-line file or one with bare-"\r" line
        # ends has no line start, so there is no second half to fork for
        monkeypatch.setattr(regpart_io, "_SPLIT_MIN_CHARS", 0)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode())
        expected = load_outcome(reference_load_rows, path, None)
        got = load_outcome(lambda p, k: load_edge_list(p, k).rows, path, None)
        assert got == expected
        assert expected[0] == ("rows" if text == "0 1\n" else "error")

    def test_fault_in_first_half_kills_the_child(self, edge_file, forks):
        text = edge_file.read_text()
        edge_file.write_text("x y\n" + text)
        with pytest.raises(FormatError, match="line 1: non-integer vertex"):
            load_edge_list(edge_file)
        assert len(forks) == 1
        assert_no_child_left()

    def test_failed_fork_parses_both_halves_here(self, edge_file, monkeypatch):
        def no_fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        assert load_edge_list(edge_file).rows == self.g.rows

    def test_child_without_result_leaves_the_second_half_here(
        self, edge_file, forks, monkeypatch
    ):
        parent = os.getpid()
        dumps = pickle.dumps

        def dumps_in_parent_only(obj, *args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("child fails")
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", dumps_in_parent_only)
        assert load_edge_list(edge_file).rows == self.g.rows
        assert len(forks) == 1
        assert_no_child_left()

    def test_failing_parent_kills_and_reaps_the_child(
        self, edge_file, forks, monkeypatch
    ):
        parent = os.getpid()
        parse_rows = regpart_io._parse_rows

        def fails_in_parent(lines, n):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return parse_rows(lines, n)

        monkeypatch.setattr(regpart_io, "_parse_rows", fails_in_parent)
        with pytest.raises(KeyboardInterrupt):
            load_edge_list(edge_file)
        assert len(forks) == 1
        assert_no_child_left()

    def test_other_thread_means_no_fork(self, edge_file, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert load_edge_list(edge_file).rows == self.g.rows
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


def edge_text(pairs):
    return "".join(f"{u} {v}\n" for u, v in pairs)


PAIRS = [(u, v) for v in range(20) for u in range(v)]


@pytest.fixture(params=[False, True], ids=["whole", "split"])
def split(request, monkeypatch):
    """Load each edge file whole, or in two halves, the second in a forked child."""
    if request.param:
        monkeypatch.setattr(regpart_io, "_SPLIT_MIN_CHARS", 0)
    return request.param


class TestEdgeListIsReadOnce:
    """load_edge_list opens its path once, and every later step parses those bytes."""

    def test_file_replaced_before_the_fork_loads_as_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(regpart_io, "_SPLIT_MIN_CHARS", 0)
        path, other = tmp_path / "g.txt", tmp_path / "h.txt"
        path.write_text(edge_text(PAIRS[:40]))
        other.write_text(edge_text(PAIRS[1:40]))
        fork = os.fork

        def replace_then_fork():
            os.replace(other, path)
            return fork()

        monkeypatch.setattr(os, "fork", replace_then_fork)
        assert load_edge_list(path).rows == Graph.from_edges(10, PAIRS[:40]).rows
        assert not other.exists()
        assert_no_child_left()

    def test_faulty_file_replaced_after_the_parse_fails_on_its_line(
        self, tmp_path, monkeypatch, split
    ):
        path, other = tmp_path / "g.txt", tmp_path / "h.txt"
        path.write_text(edge_text(PAIRS) + "x y\n")
        other.write_text(edge_text(PAIRS))
        parent = os.getpid()
        parse_rows = regpart_io._parse_rows

        def parse_then_replace(data, n):
            rows = parse_rows(data, n)
            if os.getpid() == parent and other.exists():
                os.replace(other, path)
            return rows

        monkeypatch.setattr(regpart_io, "_parse_rows", parse_then_replace)
        with pytest.raises(FormatError) as info:
            load_edge_list(path)
        assert not other.exists()
        assert str(info.value) == (
            f"{path}: line {len(PAIRS) + 1}: non-integer vertex in 'x y'"
        )

    def test_file_removed_once_opened_still_loads(self, tmp_path, monkeypatch, split):
        def open_then_remove(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            if not isinstance(file, int):  # a path, not the fork's pipe
                os.remove(file)
            return fh

        monkeypatch.setattr(regpart_io, "open", open_then_remove, raising=False)
        path = tmp_path / "g.txt"
        path.write_text(edge_text(PAIRS))
        assert load_edge_list(path).rows == Graph.from_edges(20, PAIRS).rows
        assert not path.exists()
        path.write_text(edge_text(PAIRS) + "0 1\n")
        with pytest.raises(FormatError) as info:
            load_edge_list(path)
        assert str(info.value) == (
            f"{path}: line {len(PAIRS) + 1}: duplicate edge 0 1 (first on line 1)"
        )

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize(
        "tail", ["", "x y\n", "1 0\n", "3 3\n", "0 25\n", "1 \xe9\n", "0 1 2"]
    )
    def test_pipe_loads_as_the_file_does(self, tmp_path, split, tail):
        path = tmp_path / "g.txt"
        data = (edge_text(PAIRS) + tail).encode()
        # a small file, so that the pipe buffer takes it whole, with no writer
        # left running
        assert len(data) < 4096
        path.write_bytes(data)
        expected = load_outcome(lambda p, k: load_edge_list(p, k).rows, path, 24)
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            pipe = f"/dev/fd/{r}"
            got = load_outcome(lambda p, k: load_edge_list(p, k).rows, pipe, 24)
        finally:
            os.close(r)
        assert got == tuple(
            x.replace(str(path), pipe) if isinstance(x, str) else x for x in expected
        )
        assert_no_child_left()


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

    def test_negative_vertex(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0: -1 0\n")
        with pytest.raises(FormatError) as info:
            load_partition(path)
        assert str(info.value) == f"{path}: line 1: negative vertex -1"

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("\n0: 0 2\n \r\n1: 1 3 4\n\n")
        assert load_partition(path) == Partition.from_sets([[0, 2], [1, 3, 4]], 5)
        path.write_text("\n0: 0 1\n\n0: 2 3\n")
        with pytest.raises(FormatError) as info:
            load_partition(path)
        assert info.value.line == 4

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

    def test_undecodable_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(b"0: 0 1\n1: 2 \xe93\n")
        with pytest.raises(FormatError) as info:
            load_partition(path)
        assert (info.value.path, info.value.line) == (path, 2)
        assert str(info.value) == f"{path}: line 2: byte 0xe9 is not ASCII"

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(FormatError, match="expected 'k:"):
            load_partition(path)

    def test_members_are_split_as_edge_list_tokens(self, tmp_path):
        # "\x1c" is not ASCII whitespace, so "0\x1c1" is one member; "\r"
        # and "\x0b" are
        path = tmp_path / "p.txt"
        path.write_bytes(b"0: 0\r1\x0b2\r\n")
        assert load_partition(path) == Partition.from_sets([[0, 1, 2]], 3)
        path.write_bytes(b"0: 0\x1c1\n")
        with pytest.raises(FormatError) as info:
            load_partition(path)
        assert str(info.value) == f"{path}: line 1: non-integer vertex '0\\x1c1'"


@pytest.mark.parametrize(
    "load, text, message",
    [
        (
            load_edge_list,
            "0 1\r" * (1 << 18),
            "expected 'u v', got " + repr("0 1\r" * 15) + "...",
        ),
        (
            load_partition,
            "0: 0 1\n1: " + "x" * (1 << 20),
            "non-integer vertex " + repr("x" * 60) + "...",
        ),
    ],
    ids=["edge list", "partition"],
)
def test_message_quotes_at_most_60_characters(
    tmp_path, monkeypatch, load, text, message
):
    # a 1 MB line: a file with bare-"\r" line ends is a single line
    monkeypatch.chdir(tmp_path)
    path = Path("g.txt")
    path.write_bytes(text.encode())
    with pytest.raises(FormatError) as info:
        load(path)
    line = text.count("\n") + 1
    assert str(info.value) == f"g.txt: line {line}: {message}"
    assert len(str(info.value)) < 200


@pytest.mark.parametrize(
    "load, data, message",
    [
        (
            load_edge_list,
            b"\x1c" * 100_000,
            "expected 'u v', got " + repr("\x1c" * 19) + "...",
        ),
        (
            load_partition,
            b"\x01" * 1000 + b": 0\n",
            "non-integer class index " + repr("\x01" * 19) + "...",
        ),
    ],
    ids=["edge list", "partition"],
)
def test_message_of_escaped_line_quotes_at_most_80_characters(
    tmp_path, monkeypatch, load, data, message
):
    # each byte's repr is 4 characters ("\x1c"), so 19 of them fill 78 of 80
    monkeypatch.chdir(tmp_path)
    path = Path("g.txt")
    path.write_bytes(data)
    with pytest.raises(FormatError) as info:
        load(path)
    assert str(info.value) == f"g.txt: line 1: {message}"
    assert len(str(info.value)) < 200


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
    def test_json_mirror(self):
        g, p = single_edge_run()
        trace = regularize(g, p, Fraction(2, 5))
        body = trace_json(trace)
        assert list(body) == ["steps", "refine_count", "status", "final"]
        assert body["refine_count"] == 1
        assert body["status"] == "regular"
        assert body["final"] == [[0], [1], [2], [3]]
        keys = ["phase", "num_classes", "energy", "irregular_mass", "verdict"]
        assert [list(s) for s in body["steps"]] == [keys] * 3
        assert [list(s.values()) for s in body["steps"]] == [
            ["balance", 2, "1/2", 8, "irregular"],
            ["refine", 4, "2", 8, "irregular"],
            ["balance", 4, "2", 0, "regular"],
        ]
