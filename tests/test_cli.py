import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import regpart.graph
from regpart.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_gnp_complete(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        code, out, _ = run(capsys, "gen", "--model", "gnp", "--n", 4, "--p", "1", "--seed", 5, "--out", path)
        assert code == 0
        assert path.read_text().count("\n") == 6
        assert json.loads(out)["edges"] == 6

    def test_gnp_empty(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        code, _, _ = run(capsys, "gen", "--model", "gnp", "--n", 4, "--p", "0", "--seed", 5, "--out", path)
        assert code == 0
        assert path.read_text() == ""

    def test_planted_extremes(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        code, _, _ = run(
            capsys, "gen", "--model", "planted", "--blocks", 2, "--block-size", 3,
            "--p-in", "1", "--p-out", "0", "--seed", 9, "--out", path,
        )
        assert code == 0
        edges = {tuple(map(int, line.split())) for line in path.read_text().splitlines()}
        assert edges == {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}

    def test_missing_model_param(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--model", "gnp", "--n", 4, "--seed", 5, "--out", tmp_path / "g.txt")
        assert code == 1
        assert "--p is required" in err

    @pytest.mark.parametrize("missing", ["--blocks", "--block-size", "--p-in", "--p-out"])
    def test_missing_planted_param(self, tmp_path, capsys, missing):
        flags = {"--blocks": 2, "--block-size": 3, "--p-in": "1", "--p-out": "0"}
        del flags[missing]
        argv = [item for flag, value in flags.items() for item in (flag, value)]
        code, _, err = run(
            capsys, "gen", "--model", "planted", *argv, "--seed", 9, "--out", tmp_path / "g.txt"
        )
        assert code == 1
        assert f"{missing} is required for this model" in err
        assert not (tmp_path / "g.txt").exists()

    def test_bad_probability(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--model", "gnp", "--n", 4, "--p", "3/2", "--seed", 5, "--out", tmp_path / "g.txt")
        assert code == 1
        assert "[0, 1]" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gnp", "--n", 0, "--p", "1/2"], "n must be >= 1, got 0"),
            (["gnp", "--n", 4, "--p", "abc"], "not an exact rational: 'abc'"),
            (
                ["planted", "--blocks", 0, "--block-size", 3, "--p-in", "1", "--p-out", "0"],
                "blocks must be >= 1, got 0",
            ),
            (
                ["planted", "--blocks", 2, "--block-size", 0, "--p-in", "1", "--p-out", "0"],
                "block_size must be >= 1, got 0",
            ),
        ],
    )
    def test_bad_param(self, tmp_path, capsys, argv, message):
        code, out, err = run(capsys, "gen", "--model", *argv, "--seed", 5, "--out", tmp_path / "g.txt")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "g.txt").exists()


def write_single_edge(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("0 2\n")
    part = tmp_path / "p0.txt"
    part.write_text("0: 0 1\n1: 2 3\n")
    return graph, part


class TestRegularize:
    def test_single_edge_run(self, tmp_path, capsys):
        graph, part = write_single_edge(tmp_path)
        out_file = tmp_path / "final.txt"
        code, out, _ = run(
            capsys, "regularize", "--graph", graph, "--partition", part,
            "--epsilon", "2/5", "--out", out_file,
        )
        assert code == 0
        assert out_file.read_text() == "0: 0\n1: 1\n2: 2\n3: 3\n"
        payload = json.loads(out)
        assert payload["status"] == "regular"
        assert payload["refine_count"] == 1
        assert payload["final"] == [[0], [1], [2], [3]]

    def test_trace_files(self, tmp_path, capsys):
        # the trace is JSON whatever the file's extension
        graph, part = write_single_edge(tmp_path)
        paths = [tmp_path / name for name in ("t.json", "t.csv", "t")]
        for path in paths:
            code, _, _ = run(
                capsys, "regularize", "--graph", graph, "--partition", part,
                "--epsilon", "2/5", "--trace", path,
            )
            assert code == 0
        body = json.loads(paths[0].read_text())
        assert len(body["steps"]) == 3
        assert body["refine_count"] == 1
        assert all(path.read_bytes() == paths[0].read_bytes() for path in paths)

    def test_budget_exit(self, tmp_path, capsys):
        graph, part = write_single_edge(tmp_path)
        code, out, _ = run(
            capsys, "regularize", "--graph", graph, "--partition", part,
            "--epsilon", "2/5", "--max-classes", 3,
        )
        assert code == 3
        assert json.loads(out)["status"] == "class_budget_exceeded"

    @pytest.mark.parametrize("max_classes", [0, -3])
    def test_budget_below_one_exits_one(self, tmp_path, capsys, max_classes):
        graph, part = write_single_edge(tmp_path)
        code, out, err = run(
            capsys, "regularize", "--graph", graph, "--partition", part,
            "--epsilon", "2/5", "--max-classes", max_classes,
        )
        assert code == 1
        assert out == ""
        assert "max_classes must be at least 1" in err

    def test_heuristic_exit(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        code, _, _ = run(
            capsys, "gen", "--model", "planted", "--blocks", 2, "--block-size", 16,
            "--p-in", "9/10", "--p-out", "1/10", "--seed", 42, "--out", graph,
        )
        assert code == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "regularize", "--graph", graph, "--epsilon", "1/4")
        assert code == 2
        assert json.loads(out)["status"] == "heuristically_regular"

    @pytest.mark.parametrize("eps", ["1", "39/40"])
    def test_one_class_certified_by_size_near_eps_one(self, tmp_path, capsys, eps):
        # one class of 40: eps * 40 >= 39 leaves (I, I) the only qualifying
        # sub-pair, so the pair is certified by its size, past the cutoff too
        graph = tmp_path / "g.txt"
        code, _, _ = run(capsys, "gen", "--model", "gnp", "--n", 40, "--p", "1/2", "--seed", 3, "--out", graph)
        assert code == 0
        code, out, _ = run(capsys, "regularize", "--graph", graph, "--epsilon", eps)
        assert code == 0
        assert json.loads(out)["status"] == "regular"

    def test_empty_graph_with_n(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("")
        code, out, _ = run(capsys, "regularize", "--graph", graph, "--n", 8, "--epsilon", "1/4")
        assert code == 0
        assert json.loads(out)["status"] == "regular"

    def test_empty_graph_without_n_fails(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("")
        code, _, err = run(capsys, "regularize", "--graph", graph, "--epsilon", "1/4")
        assert code == 1
        assert "explicit vertex count" in err

    def test_empty_graph_with_negative_n_fails(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("")
        code, _, err = run(capsys, "regularize", "--graph", graph, "--n", -5, "--epsilon", "1/4")
        assert code == 1
        assert "graph needs at least one vertex" in err
        assert "Traceback" not in err

    def test_duplicate_before_undecodable_byte_names_line(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_bytes(b"0 1\n1 0\n2 \xff3\n")
        code, _, err = run(capsys, "regularize", "--graph", graph, "--epsilon", "1/4")
        assert code == 1
        assert f"{graph}: line 2: duplicate edge 1 0 (first on line 1)" in err

    def test_malformed_graph_names_line(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 1\n")
        code, _, err = run(capsys, "regularize", "--graph", graph, "--epsilon", "1/4")
        assert code == 1
        assert "line 2" in err and "loop" in err

    def test_undecodable_graph_and_partition_name_line(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_bytes(b"0 1\n1 \xff2\n")
        code, _, err = run(capsys, "regularize", "--graph", graph, "--epsilon", "1/4")
        assert code == 1
        assert f"{graph}: line 2: byte 0xff is not ASCII" in err
        graph, part = write_single_edge(tmp_path)
        part.write_bytes(b"0: 0 1\n1: 2 \xff3\n")
        code, _, err = run(
            capsys, "check", "--graph", graph, "--partition", part, "--epsilon", "1/4"
        )
        assert code == 1
        assert f"{part}: line 2: byte 0xff is not ASCII" in err

    @pytest.mark.parametrize(
        "edges, extra",
        [
            ("0 1000000000000000000000000000000\n", []),
            ("0 1\n", ["--n", "1000000000000000000000"]),
            ("0 1048576\n", []),
            ("", ["--n", "1048577"]),
            # one past the 2^14 limit
            ("0 16384\n", []),
        ],
    )
    def test_hostile_vertex_count(self, tmp_path, capsys, edges, extra):
        graph = tmp_path / "g.txt"
        graph.write_text(edges)
        count = int(extra[1]) if extra else max(map(int, edges.split())) + 1
        code, out, err = run(capsys, "regularize", "--graph", graph, *extra, "--epsilon", "1/4")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and f"vertex count {count} is too large" in err
        assert "Traceback" not in err

    def test_bad_epsilon(self, tmp_path, capsys):
        graph, part = write_single_edge(tmp_path)
        for eps in ("0", "1e-3", "junk"):
            code, _, err = run(capsys, "regularize", "--graph", graph, "--epsilon", eps)
            assert code == 1
            assert "error" in err
        # negative values need the = form to get past option parsing
        code, _, err = run(capsys, "regularize", "--graph", graph, "--epsilon=-1/4")
        assert code == 1
        assert "error" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "regularize", "--graph", tmp_path / "nope.txt", "--epsilon", "1/4")
        assert code == 1
        assert "error" in err


class TestCheck:
    def test_irregular_exit_four(self, tmp_path, capsys):
        graph, part = write_single_edge(tmp_path)
        code, out, _ = run(capsys, "check", "--graph", graph, "--partition", part, "--epsilon", "2/5")
        assert code == 4
        body = json.loads(out)
        assert body["verdict"] == "irregular"
        assert body["irregular_mass"] == 8
        assert body["balance"]["balanced"] is True
        assert body["core_irregularity"]["holds"] is True

    def test_complete_graph_halves(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        code, _, _ = run(capsys, "gen", "--model", "gnp", "--n", 8, "--p", "1", "--seed", 1, "--out", graph)
        assert code == 0
        capsys.readouterr()
        part = tmp_path / "p.txt"
        part.write_text("0: 0 1 2 3\n1: 4 5 6 7\n")
        code, out, _ = run(capsys, "check", "--graph", graph, "--partition", part, "--epsilon", "1/2")
        assert code == 0
        assert json.loads(out)["verdict"] == "regular"

    def test_empty_graph_any_partition(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("")
        part = tmp_path / "p.txt"
        part.write_text("0: 0 1\n1: 2 3\n")
        code, out, _ = run(capsys, "check", "--graph", graph, "--partition", part, "--epsilon", "1/4")
        assert code == 0
        assert json.loads(out)["verdict"] == "regular"

    def test_unbalanced_exit_four(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("")
        part = tmp_path / "p.txt"
        part.write_text("0: 0 1 2 3 4 5 6\n1: 7 8 9\n")
        code, out, _ = run(capsys, "check", "--graph", graph, "--partition", part, "--epsilon", "1/10")
        assert code == 4
        body = json.loads(out)
        assert body["verdict"] == "regular"
        assert body["balance"]["balanced"] is False
        assert body["core_irregularity"] is None

    def test_no_vertex_count_flag(self, tmp_path, capsys):
        # check reads n from the partition file; only regularize takes --n
        graph, part = write_single_edge(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["check", "--graph", str(graph), "--partition", str(part),
                  "--epsilon", "2/5", "--n", "4"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --n 4" in capsys.readouterr().err

    def test_usage_error_exits_one(self, tmp_path, capsys):
        # exit 2 means heuristically regular, so a usage error such as the
        # removed --cutoff flag must not exit 2; --help still exits 0
        graph, part = write_single_edge(tmp_path)
        argv = ["check", "--graph", str(graph), "--partition", str(part), "--epsilon", "2/5"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cutoff", "10"])
        out = capsys.readouterr()
        assert exc.value.code == 1 and out.out == ""
        assert "unrecognized arguments: --cutoff 10" in out.err
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0

    def test_round_trip_consistency(self, tmp_path, capsys):
        graph, part = write_single_edge(tmp_path)
        final = tmp_path / "final.txt"
        code, _, _ = run(
            capsys, "regularize", "--graph", graph, "--partition", part,
            "--epsilon", "2/5", "--out", final,
        )
        assert code == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "check", "--graph", graph, "--partition", final, "--epsilon", "2/5")
        assert code == 0
        assert json.loads(out)["verdict"] == "regular"


def test_regularize_evaluates_energy_once_per_partition(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "--model", "gnp", "--n", 12, "--p", "1/2", "--seed", 2, "--out", graph)
    assert code == 0
    original = regpart.graph.energy
    seen = []

    def counted(g, p):
        seen.append(p)
        return original(g, p)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "regpart" and getattr(module, "energy", None) is original:
            monkeypatch.setattr(module, "energy", counted)
    code, out, _ = run(capsys, "regularize", "--graph", graph, "--epsilon", "1/5")
    assert code in (0, 2)
    assert json.loads(out)["refine_count"] >= 2
    assert seen
    assert len(seen) == len(set(seen))


# Golden outputs, captured from the CLI before the one-candidate certificate
# and the mass-grouped energy sum went in; every later change must reproduce
# them byte for byte. The JSON "final" block is shared by stdout and the JSON
# trace, so it is spelled out once per case.
GNP40_STDOUT_HEAD = """\
{
  "status": "heuristically_regular",
  "refine_count": 0,
  "steps": 1,
  "num_classes": 1,
  "energy": "9409/25",
"""

GNP40_TRACE_HEAD = """\
{
  "steps": [
    {
      "phase": "balance",
      "num_classes": 1,
      "energy": "9409/25",
      "irregular_mass": 0,
      "verdict": "heuristically_regular"
    }
  ],
  "refine_count": 0,
  "status": "heuristically_regular",
"""

GNP40_FINAL = """\
  "final": [
    [
      0,
      1,
      2,
      3,
      4,
      5,
      6,
      7,
      8,
      9,
      10,
      11,
      12,
      13,
      14,
      15,
      16,
      17,
      18,
      19,
      20,
      21,
      22,
      23,
      24,
      25,
      26,
      27,
      28,
      29,
      30,
      31,
      32,
      33,
      34,
      35,
      36,
      37,
      38,
      39
    ]
  ]
}
"""

GNP40_OUT = """\
0: 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39
"""

GNP24_STDOUT_HEAD = """\
{
  "status": "regular",
  "refine_count": 2,
  "steps": 5,
  "num_classes": 24,
  "energy": "260",
"""

GNP24_FINAL = """\
  "final": [
    [
      0
    ],
    [
      1
    ],
    [
      2
    ],
    [
      3
    ],
    [
      4
    ],
    [
      5
    ],
    [
      6
    ],
    [
      7
    ],
    [
      8
    ],
    [
      9
    ],
    [
      10
    ],
    [
      11
    ],
    [
      12
    ],
    [
      13
    ],
    [
      14
    ],
    [
      15
    ],
    [
      16
    ],
    [
      17
    ],
    [
      18
    ],
    [
      19
    ],
    [
      20
    ],
    [
      21
    ],
    [
      22
    ],
    [
      23
    ]
  ]
}
"""

GNP24_TRACE_HEAD = """\
{
  "steps": [
    {
      "phase": "balance",
      "num_classes": 1,
      "energy": "4225/36",
      "irregular_mass": 576,
      "verdict": "irregular"
    },
    {
      "phase": "refine",
      "num_classes": 4,
      "energy": "807115/5929",
      "irregular_mass": 576,
      "verdict": "irregular"
    },
    {
      "phase": "balance",
      "num_classes": 13,
      "energy": "162",
      "irregular_mass": 452,
      "verdict": "irregular"
    },
    {
      "phase": "refine",
      "num_classes": 24,
      "energy": "260",
      "irregular_mass": 452,
      "verdict": "irregular"
    },
    {
      "phase": "balance",
      "num_classes": 24,
      "energy": "260",
      "irregular_mass": 0,
      "verdict": "regular"
    }
  ],
  "refine_count": 2,
  "status": "regular",
"""

GNP24_OUT = """\
0: 0
1: 1
2: 2
3: 3
4: 4
5: 5
6: 6
7: 7
8: 8
9: 9
10: 10
11: 11
12: 12
13: 13
14: 14
15: 15
16: 16
17: 17
18: 18
19: 19
20: 20
21: 21
22: 22
23: 23
"""

GOLDEN_CASES = {
    # one class, left heuristically regular: the JSON trace format
    "gnp40-eps1_5": (
        ("40", "3", "t.json", 2),
        GNP40_STDOUT_HEAD + GNP40_FINAL,
        GNP40_TRACE_HEAD + GNP40_FINAL,
        GNP40_OUT,
    ),
    # two refine rounds down to singletons, classes of mixed sizes on the
    # way: a trace of five steps, one-candidate pairs and energy sums over
    # several block masses
    "gnp24-eps1_5": (
        ("24", "3", "t.json", 0),
        GNP24_STDOUT_HEAD + GNP24_FINAL,
        GNP24_TRACE_HEAD + GNP24_FINAL,
        GNP24_OUT,
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_cli_output(tmp_path, capsys, case):
    (n, seed, trace_name, exit_code), stdout, trace, out = GOLDEN_CASES[case]
    graph = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "--model", "gnp", "--n", n, "--p", "1/2", "--seed", seed, "--out", graph)
    assert code == 0
    trace_path = tmp_path / trace_name
    out_path = tmp_path / "o.txt"
    code, got, _ = run(
        capsys, "regularize", "--graph", graph, "--epsilon", "1/5",
        "--trace", trace_path, "--out", out_path,
    )
    assert code == exit_code
    assert got == stdout
    assert trace_path.read_bytes() == trace.encode()
    assert out_path.read_bytes() == out.encode()


def _witnessed(a, b, x, y, d_xy, d_ij):
    witness = {"x": x, "y": y, "d_xy": d_xy, "d_ij": d_ij}
    return {"pair": [a, b], "kind": "irregular_witnessed", "witness": witness}


def _unknown(a, b):
    return {"pair": [a, b], "kind": "unknown_treated_as_regular"}


GNP40_FOUR = [list(range(10 * k, 10 * k + 10)) for k in range(4)]
GNP40_TWO = [list(range(30)), list(range(30, 40))]

# check on gnp(40, 1/2, seed 5): (classes, epsilon, exit code, the JSON
# fields that follow n, epsilon, num_classes and classes)
GOLDEN_CHECK_CASES = {
    # a balanced core of four classes with every ordered pair witnessed
    "four-eps1_5": (GNP40_FOUR, "1/5", 4, {
        "verdict": "irregular",
        "irregular_mass": 1600,
        "threshold": "320",
        "classifications": [
            _witnessed(0, 0, [0, 1, 3, 4, 5, 6, 7, 8, 9], [0, 3, 7], "16/27", "19/50"),
            _witnessed(0, 1, [0, 1, 2, 3, 4, 6, 7, 8, 9], [10, 15, 18], "4/27", "9/25"),
            _witnessed(0, 2, [0, 1, 2, 5, 6, 7, 8, 9], [21, 23, 26, 28], "19/32", "39/100"),
            _witnessed(0, 3, [0, 1, 2, 3, 4, 5, 6, 7, 9], [31, 36, 38], "7/9", "57/100"),
            _witnessed(1, 0, [10, 15, 18], [0, 1, 2, 3, 4, 6, 7, 8, 9], "4/27", "9/25"),
            _witnessed(1, 1, [10, 11, 13, 14, 15, 16, 17, 18, 19], [11, 13, 14, 15], "1/6", "19/50"),
            _witnessed(1, 2, [10, 11, 13, 14, 15, 16, 17, 18], [20, 21, 28], "19/24", "29/50"),
            _witnessed(1, 3, [10, 11, 12, 13, 14, 15, 16, 17, 18], [34, 35, 38, 39], "13/36", "57/100"),
            _witnessed(2, 0, [21, 23, 26, 28], [0, 1, 2, 5, 6, 7, 8, 9], "19/32", "39/100"),
            _witnessed(2, 1, [20, 21, 28], [10, 11, 13, 14, 15, 16, 17, 18], "19/24", "29/50"),
            _witnessed(2, 2, [20, 21, 22, 23, 24, 25, 26, 27, 28], [20, 21, 23, 25], "5/18", "12/25"),
            _witnessed(2, 3, [20, 21, 22, 23, 24, 25, 26, 29], [30, 32, 34], "17/24", "1/2"),
            _witnessed(3, 0, [31, 36, 38], [0, 1, 2, 3, 4, 5, 6, 7, 9], "7/9", "57/100"),
            _witnessed(3, 1, [34, 35, 38, 39], [10, 11, 12, 13, 14, 15, 16, 17, 18], "13/36", "57/100"),
            _witnessed(3, 2, [30, 32, 34], [20, 21, 22, 23, 24, 25, 26, 29], "17/24", "1/2"),
            _witnessed(3, 3, [30, 31, 32, 33, 34, 35, 36, 37, 39], [32, 36, 37], "2/9", "11/25"),
        ],
        "balance": {
            "balanced": True, "class_size": 10, "core": [0, 1, 2, 3],
            "covered": 40, "leftover": 0, "limit": "8",
        },
        "core_irregularity": {
            "irregular_pairs": 16, "core_size": 4, "class_size": 10, "bound": "5",
            "holds": False, "mass": 1600, "mass_limit": "320",
            "mass_within_threshold": False,
        },
    }),
    # the class of 30 is the core, and the class of 10 left over is too many
    "two-eps1_5": (GNP40_TWO, "1/5", 4, {
        "verdict": "heuristically_regular",
        "irregular_mass": 100,
        "threshold": "320",
        "classifications": [
            _unknown(0, 0),
            _unknown(0, 1),
            _unknown(1, 0),
            _witnessed(1, 1, [30, 31, 32, 33, 34, 35, 36, 37, 39], [32, 36, 37], "2/9", "11/25"),
        ],
        "balance": {
            "balanced": False, "class_size": 30, "core": [0],
            "covered": 30, "leftover": 10, "limit": "8",
        },
        "core_irregularity": None,
    }),
    # the same classes balanced: the core leaves out the witnessed class 1
    "two-eps1_3": (GNP40_TWO, "1/3", 2, {
        "verdict": "heuristically_regular",
        "irregular_mass": 100,
        "threshold": "1600/3",
        "classifications": [
            _unknown(0, 0),
            _unknown(0, 1),
            _unknown(1, 0),
            _witnessed(1, 1, [30, 31, 32, 33, 37], [31, 32, 33, 37], "1/10", "11/25"),
        ],
        "balance": {
            "balanced": True, "class_size": 30, "core": [0],
            "covered": 30, "leftover": 10, "limit": "40/3",
        },
        "core_irregularity": {
            "irregular_pairs": 0, "core_size": 1, "class_size": 30, "bound": "3/4",
            "holds": True, "mass": 0, "mass_limit": "1600/3",
            "mass_within_threshold": True,
        },
    }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CHECK_CASES))
def test_golden_check_output(tmp_path, capsys, case):
    classes, eps, exit_code, fields = GOLDEN_CHECK_CASES[case]
    graph = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "--model", "gnp", "--n", 40, "--p", "1/2", "--seed", 5, "--out", graph)
    assert code == 0
    part = tmp_path / "p.txt"
    part.write_text("".join(f"{i}: {' '.join(map(str, c))}\n" for i, c in enumerate(classes)))
    code, got, err = run(capsys, "check", "--graph", graph, "--partition", part, "--epsilon", eps)
    head = {"n": 40, "epsilon": eps, "num_classes": len(classes), "classes": classes}
    assert code == exit_code
    assert got == json.dumps({**head, **fields}, indent=2) + "\n"
    assert err == f"verdict {fields['verdict']}; balanced={fields['balance']['balanced']}\n"


def _bench_inputs():
    """bench/inputs.py, loaded from its file without touching the benchmark."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# SHA-256 of stdout, --out and --trace for `regularize --epsilon 1/8` on the
# graded-refine benchmark input (graded n=192), per seed: a speed-up of any
# layer must leave the benchmark's own outputs byte for byte as they were
GOLDEN_GRADED_SHA256 = {
    1: (
        "d0a96bd27b48d561e5a55c97bc65bde2c0907d9129a94e80dd1f61af2ac274cd",
        "3bb44ba80aa3f53a34aedec6caa1aaef03f369b634f9cf96f5ed572b6d2d7a3e",
        "2b4af3b6346dbcfa3c571398540d2150d5d526fe85d2aa522b3a9a8c6f49dafb",
    ),
    2: (
        "03c55ada715b72a9f27a3aaac35d83a8793a1f7dd344d6234c976fbb339cfd35",
        "ea0d3e663c53e2946941e2dc703a95a39d05bf2432746d3764bc61dc18235ccc",
        "e8d6965ee5b702ba1967cb74d0b0789e0af8cb027595297fac20c97223e94de3",
    ),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_GRADED_SHA256))
def test_golden_graded_benchmark_input(tmp_path, capsys, seed):
    inputs = _bench_inputs()
    graph = tmp_path / "g.txt"
    inputs.write_file(graph, inputs.edge_list_text(inputs.graded_edges(192, seed)))
    out_path, trace_path = tmp_path / "o.txt", tmp_path / "t.json"
    code, got, _ = run(
        capsys, "regularize", "--graph", graph, "--epsilon", "1/8",
        "--out", out_path, "--trace", trace_path,
    )
    assert code == 0
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (got.encode(), out_path.read_bytes(), trace_path.read_bytes())
    )
    assert digests == GOLDEN_GRADED_SHA256[seed]


# SHA-256 of `check` stdout on the large-check benchmark input (noisy
# half-graph n=1024, seed 1, eight consecutive classes, eps 1/3): its large
# pairs go to the heuristic tier, so this pins that tier's witnesses and
# unknown pairs as the benchmark reports them
GOLDEN_LARGE_CHECK_SHA256 = (
    "cbb4060a2c09c82dab4d3a7f3b8f67f20ab85deccf3c7d432749dada8e1ba2e4"
)


def test_golden_large_check_benchmark_input(tmp_path, capsys):
    inputs = _bench_inputs()
    graph, part = tmp_path / "g.txt", tmp_path / "p.txt"
    inputs.write_file(graph, inputs.edge_list_text(inputs.half_edges(1024, 1)))
    classes = inputs.consecutive_classes((244, 244, 12, 12, 12, 12, 244, 244))
    inputs.write_file(part, inputs.partition_text(classes))
    code, got, _ = run(
        capsys, "check", "--graph", graph, "--partition", part, "--epsilon", "1/3"
    )
    assert code == 2
    assert hashlib.sha256(got.encode()).hexdigest() == GOLDEN_LARGE_CHECK_SHA256
