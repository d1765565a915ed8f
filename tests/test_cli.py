import json
import sys

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

    def test_bad_probability(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--model", "gnp", "--n", 4, "--p", "3/2", "--seed", 5, "--out", tmp_path / "g.txt")
        assert code == 1
        assert "[0, 1]" in err


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
            "--epsilon", "2/5", "--strategy", "exhaustive", "--out", out_file,
        )
        assert code == 0
        assert out_file.read_text() == "0: 0\n1: 1\n2: 2\n3: 3\n"
        payload = json.loads(out)
        assert payload["status"] == "regular"
        assert payload["refine_count"] == 1
        assert payload["final"] == [[0], [1], [2], [3]]

    def test_trace_files(self, tmp_path, capsys):
        graph, part = write_single_edge(tmp_path)
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        code, _, _ = run(
            capsys, "regularize", "--graph", graph, "--partition", part,
            "--epsilon", "2/5", "--trace", csv_path,
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("iter,phase,num_classes")
        assert len(lines) == 4
        code, _, _ = run(
            capsys, "regularize", "--graph", graph, "--partition", part,
            "--epsilon", "2/5", "--trace", json_path,
        )
        assert code == 0
        body = json.loads(json_path.read_text())
        assert body["refine_count"] == 1

    def test_budget_exit(self, tmp_path, capsys):
        graph, part = write_single_edge(tmp_path)
        code, out, _ = run(
            capsys, "regularize", "--graph", graph, "--partition", part,
            "--epsilon", "2/5", "--max-classes", 3,
        )
        assert code == 3
        assert json.loads(out)["status"] == "class_budget_exceeded"

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

    def test_malformed_graph_names_line(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 1\n")
        code, _, err = run(capsys, "regularize", "--graph", graph, "--epsilon", "1/4")
        assert code == 1
        assert "line 2" in err and "loop" in err

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


def test_unknown_strategy_rejected(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n")
    try:
        main(["check", "--graph", str(graph), "--partition", str(graph), "--epsilon", "1/4", "--strategy", "magic"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("argparse should reject unknown strategies")


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
