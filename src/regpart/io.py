"""File formats: edge lists, partitions, report JSON and trace JSON.

All writers emit canonical bytes (sorted members, "\n" line endings, fixed
key order), so identical runs serialize identically. Edge lists and
partitions are ASCII: lines end at "\n", a "\r" is whitespace, and the
tokens of a line are what bytes.split returns. Loaders read each file once
and name the offending line of malformed input. Rationals serialize as
their canonical lowest-terms string ("1/4", "2"), which round-trips exactly.
"""

import io
import json
import os
import pickle
import signal
import threading
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .errors import FormatError, ensure
from .graph import Graph, Partition, VertexSet


# The largest vertex count an edge list may give. It caps the row count only:
# rows are bitsets, so their memory and build time grow quadratically in n,
# to about 70 GiB at this limit (extrapolated; README). No row or table is
# allocated until the ids pass the range check and this limit, in each half of
# a split file too: a hostile id (10**30) costs only a neighbour-list entry.
_MAX_VERTICES = 1 << 20

# An edge file of at least this many bytes is parsed in two halves, the
# second in a forked child (_parse_halves). Below it the fork and the pickled
# rows cost about what the second core saves: on half-graph files in fresh
# interpreters (2-vCPU Xeon, Python 3.11.7, median of 31), _read_rows took
# 7.5 ms split against 6.3 ms whole at 65 KiB, 13.9 against 13.4 ms at
# 190 KiB, 19.0 against 24.3 ms at 278 KiB and 24.5 against 27.0 ms at
# 381 KiB.
_SPLIT_MIN_CHARS = 256 * 1024


def load_edge_list(path, n=None):
    """Read a "u v" per-line edge file.

    Loops and repeated pairs (in either orientation) are rejected with the
    line number. Without an explicit n the vertex count is inferred as
    max endpoint + 1, which makes an empty file ambiguous: pass n for graphs
    that may have no edges or trailing isolated vertices. Vertices outside
    0..n-1 are reported only after the whole file has parsed, so a malformed
    line anywhere wins over them, and a vertex count above _MAX_VERTICES is
    reported last.

    The path is opened and read once, so it may be a pipe, and every later
    step parses those bytes: _read_rows, whole or in two processes, and only
    if it finds a fault, once its tables are released, _raise_first_fault,
    which rescans them line by line with the same tokens to name the error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    table = _read_rows(data, n)
    if table is None:
        _raise_first_fault(data, path, n)
    return Graph(table)


def _read_rows(data, n):
    """The adjacency row bitmasks of edge-file bytes, or None if they have any fault.

    Bytes of _SPLIT_MIN_CHARS or more are cut after the first "\\n" at or
    past their middle byte and parsed in two processes (_parse_halves), where
    os.fork exists and no other thread runs; any others are parsed whole,
    here, by _parse_rows. The table is built once the vertex count has passed
    its checks, and an edge whose two copies lie in different halves shows
    as a bit that both halves' rows set.
    """
    split = data.find(b"\n", len(data) // 2) + 1
    if (
        len(data) < _SPLIT_MIN_CHARS
        or not 0 < split < len(data)
        or not hasattr(os, "fork")
        or threading.active_count() > 1
    ):
        parts = [_parse_rows(data, n)]
    else:
        parts = _parse_halves(data, split, n)
    if None in parts:
        return None
    top = max(max(rows, default=-1) for rows in parts)
    count = top + 1 if n is None else n
    if (n is None and top < 0) or count > _MAX_VERTICES:
        return None
    table = [0] * count
    for rows in parts:
        for u, row in rows.items():
            if table[u] & row:
                return None
            table[u] |= row
    return table


def _parse_halves(data, split, n):
    """[the rows of data[:split], the rows of data[split:]].

    A forked child parses data[split:], which it inherits, and sends its rows
    back pickled through a pipe, while this process parses data[:split]. If
    the fork fails, or the child dies without a result, this process parses
    data[split:] itself. The pipe is closed and the child killed and reaped
    before this returns: one that has sent its rows has nothing left to do,
    and one blocked on a full pipe, because the first half has a fault or
    this process failed, cannot deadlock the wait.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        _send_rows(data[split:], n, r, w)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            first = _parse_rows(data[:split], n)
            if first is None:
                return [None]
            sent = pipe.read()
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    try:
        second = pickle.loads(sent)
    except (EOFError, pickle.UnpicklingError):  # no child, or one cut short
        second = _parse_rows(data[split:], n)
    return [first, second]


def _send_rows(tail, n, r, w):
    """In the forked child: write the pickled _parse_rows of tail to the pipe w.

    Never returns: the child leaves through os._exit whatever happens, so
    it runs none of the parent's cleanup, and exits 1 on any failure.
    """
    try:
        os.close(r)
        with open(w, "wb") as pipe:
            pipe.write(pickle.dumps(_parse_rows(tail, n)))
        os._exit(0)
    finally:
        os._exit(1)


def _parse_rows(data, n):
    """The partial rows {u: bitmask} of data, whole lines of an edge file, or None.

    The tokens of each "\\n"-ended line are its bytes.split; a byte that is
    not ASCII lands in a token that int() rejects. Each token is converted
    by int() on its first sighting only, and each edge is appended to both
    endpoints' neighbour lists. Only after the vertex ids pass the range
    check and _MAX_VERTICES is each row bitmask built, once, from a
    bytearray of '0'/'1' digits.
    """
    ids = {}
    adj = {}
    get = ids.get
    try:
        for a, b in filter(None, map(bytes.split, io.BytesIO(data))):
            u, u_nbrs = get(a) or _sight(ids, adj, a)
            v, v_nbrs = get(b) or _sight(ids, adj, b)
            u_nbrs.append(v)
            v_nbrs.append(u)
    except ValueError:
        return None
    limit = _MAX_VERTICES if n is None else min(n, _MAX_VERTICES)
    top = max(adj, default=-1)
    if adj and (min(adj) < 0 or top >= limit):
        return None
    zeros = bytearray(b"0") * (top + 1)
    one = ord("1")
    rows = {}
    for u, nbrs in adj.items():
        bits = zeros[:]
        for v in nbrs:
            bits[v] = one
        # A repeated edge sets a bit twice, and so does a loop, which lists u
        # in its own row once per endpoint.
        if bits.count(one) != len(nbrs):
            return None
        rows[u] = int(bits[::-1], 2)
    return rows


def _sight(ids, adj, token):
    """Map a token seen for the first time to (its vertex, the vertex's neighbours).

    Spellings of one vertex ("7", "07", "+7") share one neighbour list.
    """
    u = int(token)
    ids[token] = entry = u, adj.setdefault(u, [])
    return entry


def _raise_first_fault(data, path, n):
    """Raise the FormatError of data, the bytes of path that load_edge_list rejected.

    Scans the lines, splitting and converting each line's bytes as
    _parse_rows does. The first line fault in file order wins (a byte
    that is not ASCII, a malformed line, a non-integer or negative vertex, a
    loop, a repeated edge), then the first line with a vertex out of range
    for an explicit n, then an empty file without n, then a vertex count
    above _MAX_VERTICES.
    Bytes with none of these faults are a bug in the caller.
    """
    seen = {}  # edge key -> its first line
    top = -1
    far = None
    for lineno, raw in _numbered_lines(data, path):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise FormatError(
                f"expected 'u v', got {_quoted(raw.strip())}", path=path, line=lineno
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(
                f"non-integer vertex in {_quoted(raw.strip())}", path=path, line=lineno
            ) from None
        if u < 0 or v < 0:
            raise FormatError(
                f"negative vertex in {_quoted(raw.strip())}", path=path, line=lineno
            )
        if u == v:
            raise FormatError(f"loop at vertex {u}", path=path, line=lineno)
        lo, hi = (u, v) if u < v else (v, u)
        # One int per edge, not a tuple: hi * (hi - 1) // 2 + lo is
        # injective on pairs 0 <= lo < hi, the only pairs left here.
        key = hi * (hi - 1) // 2 + lo
        if key in seen:
            raise FormatError(
                f"duplicate edge {u} {v} (first on line {seen[key]})",
                path=path,
                line=lineno,
            )
        seen[key] = lineno
        top = max(top, hi)
        if far is None and n is not None and hi >= n:
            far = lineno
    if far is not None:
        raise FormatError(f"vertex out of range for n={n}", path=path, line=far)
    if n is None:
        if top < 0:
            raise FormatError(
                "empty edge list needs an explicit vertex count", path=path
            )
        n = top + 1
    if n > _MAX_VERTICES:
        raise FormatError(f"vertex count {n} is too large", path=path)
    ensure(False, f"{path}: load_edge_list rejected an edge list with no fault")


def _numbered_lines(data, path):
    """Each (line number from 1, line) of a file's bytes, split after each "\\n".

    Raises the FormatError of the first line that holds a byte which is not
    ASCII, naming path, the line and the byte. Lines are yielded in order,
    so a fault on an earlier line still wins.
    """
    for lineno, raw in enumerate(io.BytesIO(data), 1):
        if not raw.isascii():
            byte = next(b for b in raw if b > 0x7F)
            raise FormatError(f"byte {byte:#04x} is not ASCII", path=path, line=lineno)
        yield lineno, raw


def _quoted(token):
    """The repr of an ASCII line or token for a message.

    A text of more than 60 characters gives the repr of its longest prefix of
    at most 60 whose repr has at most 80 characters, then "...".
    """
    text = token.decode()
    if len(text) <= 60:
        return repr(text)
    k = next(k for k in range(60, 0, -1) if len(repr(text[:k])) <= 80)
    return f"{text[:k]!r}..."


def dump_edge_list(g, path):
    with open(path, "w") as fh:
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def load_partition(path):
    """Read a "k: v1 v2 ..." per-line partition file.

    Class indices must be 0, 1, ... in file order. The ground size n is the
    total number of vertices listed, and the classes must partition 0..n-1
    exactly. The file is read once, and split as an edge list is: a byte
    that is not ASCII gets the FormatError of its line (_numbered_lines), and
    the members are the bytes.split tokens after the colon.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    member_lists = []
    first_line = {}
    for lineno, raw in _numbered_lines(data, path):
        text = raw.strip()
        if not text:
            continue
        head, sep, tail = text.partition(b":")
        if not sep:
            raise FormatError(
                f"expected 'k: v1 v2 ...', got {_quoted(text)}", path=path, line=lineno
            )
        try:
            k = int(head)
        except ValueError:
            raise FormatError(
                f"non-integer class index {_quoted(head)}", path=path, line=lineno
            ) from None
        if k != len(member_lists):
            raise FormatError(
                f"class index {k} out of order (expected {len(member_lists)})",
                path=path,
                line=lineno,
            )
        tokens = tail.split()
        if not tokens:
            raise FormatError("class has no vertices", path=path, line=lineno)
        members = []
        for tok in tokens:
            try:
                v = int(tok)
            except ValueError:
                raise FormatError(
                    f"non-integer vertex {_quoted(tok)}", path=path, line=lineno
                ) from None
            if v < 0:
                raise FormatError(f"negative vertex {v}", path=path, line=lineno)
            if v in first_line:
                raise FormatError(
                    f"vertex {v} repeated (first on line {first_line[v]})",
                    path=path,
                    line=lineno,
                )
            first_line[v] = lineno
            members.append(v)
        member_lists.append(members)
    if not member_lists:
        raise FormatError("empty partition file", path=path)
    ground = sum(len(m) for m in member_lists)
    top = max(max(m) for m in member_lists)
    if top != ground - 1:
        raise FormatError(
            f"vertices do not cover 0..{ground - 1} (largest is {top})", path=path
        )
    classes = [VertexSet.from_iterable(m, ground) for m in member_lists]
    return Partition(classes)


def dump_partition(p, path):
    with open(path, "w") as fh:
        for k, cls in enumerate(p):
            fh.write(f"{k}: {' '.join(str(v) for v in cls.members())}\n")


def plain(value):
    """value as JSON-ready data, the one encoding rule of every JSON artifact.

    A Fraction becomes its canonical string, a VertexSet its sorted members,
    a Partition the member lists of its classes, a tuple or list a list, and a
    dataclass a dict of its fields in declaration order, each encoded in turn.
    Anything else (int, bool, str, None) passes through unchanged.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, VertexSet):
        return list(value.members())
    if isinstance(value, (Partition, tuple, list)):
        return [plain(v) for v in value]
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    return value


def report_json(report):
    """RegularityReport as a JSON-ready dict, ordered pairs sorted."""
    body = {
        "n": report.partition.ground_size,
        "epsilon": plain(report.eps),
        "num_classes": len(report.partition),
        "classes": plain(report.partition),
        "verdict": report.verdict,
        "irregular_mass": report.irregular_mass,
        "threshold": plain(report.threshold),
        "classifications": [],
    }
    for pair, clf in report.classifications.items():  # row-major order is sorted order
        entry = {"pair": list(pair), "kind": clf.kind}
        if clf.witness is not None:
            entry["witness"] = plain(clf.witness)
        body["classifications"].append(entry)
    return body


def trace_json(trace):
    return {
        "steps": plain(trace.steps),
        "refine_count": trace.refine_count,
        "status": trace.status,
        "final": plain(trace.final),
    }


def dump_trace_json(trace, path):
    with open(path, "w") as fh:
        json.dump(trace_json(trace), fh, indent=2)
        fh.write("\n")
