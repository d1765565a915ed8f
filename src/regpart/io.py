"""File formats: edge lists, partitions, report JSON, trace CSV and JSON.

All writers emit canonical bytes (sorted members, "\n" line endings, fixed
key order), so identical runs serialize identically. Loaders are strict and
name the offending line on malformed input. Rationals serialize as their
canonical lowest-terms string ("1/4", "2"), which round-trips exactly.
"""

import csv
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .errors import FormatError
from .graph import Graph, Partition, VertexSet


# The largest vertex count an edge list may give. Edges with an endpoint at or
# above this, or at or above an explicit n, set no bits while the file parses:
# they are kept as (u, v) -> line, so a hostile vertex id allocates no huge row
# before a later line fault, the range check or this limit rejects the file.
_MAX_VERTICES = 1 << 20


def load_edge_list(path, n=None):
    """Read a "u v" per-line edge file.

    Loops and repeated pairs (in either orientation) are rejected with the
    line number. Without an explicit n the vertex count is inferred as
    max endpoint + 1, which makes an empty file ambiguous: pass n for graphs
    that may have no edges or trailing isolated vertices. Vertices outside
    0..n-1 are reported only after the whole file has parsed, so a malformed
    line anywhere wins over them.

    The file is read once, setting bits of one row bitmask per vertex as it
    goes. A repeated edge is found by testing its bit, and only then are the
    earlier lines scanned again to name the first copy. A vertex count above
    _MAX_VERTICES is rejected once the file has parsed.
    """
    limit = _MAX_VERTICES if n is None else min(n, _MAX_VERTICES)
    rows = {}
    deferred = {}
    get = rows.get
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                a, b = raw.split()
                u, v = int(a), int(b)
            except ValueError:
                text = raw.strip()
                if not text:
                    continue
                if len(text.split()) != 2:
                    raise FormatError(
                        f"expected 'u v', got {text!r}", path=path, line=lineno
                    ) from None
                raise FormatError(
                    f"non-integer vertex in {text!r}", path=path, line=lineno
                ) from None
            if u < 0 or v < 0:
                raise FormatError(
                    f"negative vertex in {raw.strip()!r}", path=path, line=lineno
                )
            if u == v:
                raise FormatError(f"loop at vertex {u}", path=path, line=lineno)
            if u < limit and v < limit:
                row = get(u, 0)
                if not row >> v & 1:
                    rows[u] = row | 1 << v
                    rows[v] = get(v, 0) | 1 << u
                    continue
                first = _first_line_of(path, u, v)
            else:
                first = deferred.setdefault((u, v) if u < v else (v, u), lineno)
                if first == lineno:
                    continue
            raise FormatError(
                f"duplicate edge {u} {v} (first on line {first})",
                path=path,
                line=lineno,
            )
    if n is None:
        if not rows and not deferred:
            raise FormatError(
                "empty edge list needs an explicit vertex count", path=path
            )
        n = max([*rows, *(v for _, v in deferred)]) + 1
    for (u, v), lineno in deferred.items():
        if v >= n:
            raise FormatError(
                f"vertex out of range for n={n}", path=path, line=lineno
            )
    # Past this check no edge is deferred: each one has an endpoint at or above
    # n, rejected above, or at or above _MAX_VERTICES, so n is larger.
    if n > _MAX_VERTICES:
        raise FormatError(f"vertex count {n} is too large", path=path)
    table = [0] * n
    for u, row in rows.items():
        table[u] = row
    return Graph(table)


def _first_line_of(path, u, v):
    """Line of the first "u v" or "v u" in a file whose earlier lines parsed."""
    key = {u, v}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if parts and set(map(int, parts)) == key:
                return lineno


def dump_edge_list(g, path):
    with open(path, "w") as fh:
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def load_partition(path):
    """Read a "k: v1 v2 ..." per-line partition file.

    Class indices must be 0, 1, ... in file order. The ground size n is the
    total number of vertices listed, and the classes must partition 0..n-1
    exactly.
    """
    member_lists = []
    first_line = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text:
                continue
            head, sep, tail = text.partition(":")
            if not sep:
                raise FormatError(
                    f"expected 'k: v1 v2 ...', got {text!r}", path=path, line=lineno
                )
            try:
                k = int(head)
            except ValueError:
                raise FormatError(
                    f"non-integer class index {head!r}", path=path, line=lineno
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
                        f"non-integer vertex {tok!r}", path=path, line=lineno
                    ) from None
                if v < 0:
                    raise FormatError(
                        f"negative vertex {v}", path=path, line=lineno
                    )
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


TRACE_CSV_COLUMNS = (
    "iter",
    "phase",
    "num_classes",
    "energy_num",
    "energy_den",
    "irregular_mass",
    "verdict",
)


def dump_trace_csv(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_CSV_COLUMNS)
        for idx, step in enumerate(trace.steps):
            writer.writerow(
                [
                    idx,
                    step.phase,
                    step.num_classes,
                    step.energy.numerator,
                    step.energy.denominator,
                    step.irregular_mass,
                    step.verdict,
                ]
            )


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
