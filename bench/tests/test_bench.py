"""Tests of the benchmark itself: inputs, checker, tracing and a smoke run.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import contextlib
import io
import json
import os
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checker  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from regpart import Graph, VertexSet, check_pair_exhaustive  # noqa: E402
from regpart.cli import main as cli_main  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    "graded": replace(run.WORKLOADS["graded-refine"], name="tiny-graded", class_sizes=(24,)),
    "half": replace(
        run.WORKLOADS["large-check"], name="tiny-half", class_sizes=(30, 5, 5, 5, 3, 2)
    ),
}


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, out.getvalue()


def _run_tiny(workload, tmp_path, seed=3):
    paths, edges, classes, _ = run.make_inputs(workload, seed, str(tmp_path))
    outputs = {}
    if workload.command == "regularize":
        outputs = {"out": str(tmp_path / "final.txt"), "trace": str(tmp_path / "trace.json")}
    code, stdout = _cli(run.command_argv(workload, paths, outputs))
    check = checker.Checker(
        workload.command, workload.n, edges, classes, workload.epsilon, workload.exit_codes
    )
    return check, code, stdout, run.read_outputs(outputs)


def test_same_seed_same_hashes(tmp_path):
    for name, workload in run.WORKLOADS.items():
        first = run.make_inputs(workload, 7, str(tmp_path))[3]
        again = run.make_inputs(workload, 7, str(tmp_path))[3]
        other = run.make_inputs(workload, 8, str(tmp_path))[3]
        assert first == again, name
        assert first["graph.txt"] != other["graph.txt"], name


def test_decider_agrees_with_regpart_exhaustive():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(4, 14)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        rows = checker.adjacency(n, edges)
        order = list(range(n))
        rng.shuffle(order)
        cut = rng.randint(1, n - 1)
        i, j = sorted(order[:cut]), sorted(order[cut:])
        if rng.random() < 0.3:
            j = i
        eps = Fraction(1, rng.choice((2, 3, 4)))
        g = Graph.from_edges(n, edges)
        clf = check_pair_exhaustive(
            g, VertexSet.from_iterable(i, n), VertexSet.from_iterable(j, n), eps
        )
        assert checker.pair_is_regular(rows, i, j, eps) == (not clf.is_irregular)


def test_checker_accepts_real_output_and_rejects_corrupted_witness(tmp_path):
    check, code, stdout, files = _run_tiny(TINY["half"], tmp_path)
    assert check.check(code, stdout, files) == []
    body = json.loads(stdout)
    entry = next(e for e in body["classifications"] if "witness" in e)
    entry["witness"]["d_xy"] = str(Fraction(entry["witness"]["d_xy"]) + Fraction(1, 97))
    assert check.check(code, json.dumps(body), files)
    body = json.loads(stdout)
    entry = next(e for e in body["classifications"] if "witness" in e)
    entry["witness"]["x"] = entry["witness"]["x"][:1]
    assert check.check(code, json.dumps(body), files)


def test_checker_rejects_wrong_energy_and_kind(tmp_path):
    check, code, stdout, files = _run_tiny(TINY["graded"], tmp_path)
    assert check.check(code, stdout, files) == []
    body = json.loads(stdout)
    body["energy"] = str(Fraction(body["energy"]) + 1)
    assert any("energy" in p for p in check.check(code, json.dumps(body), files))

    check, code, stdout, files = _run_tiny(TINY["half"], tmp_path)
    body = json.loads(stdout)
    entry = next(e for e in body["classifications"] if e["kind"] == checker.REGULAR_CERTIFIED)
    entry["kind"] = checker.UNKNOWN
    assert check.check(code, json.dumps(body), files)


def test_tracing_rebinds_every_copy_and_self_times_add_up(tmp_path):
    import regpart.cli
    import regpart.driver
    import regpart.refine

    original = regpart.refine.energy
    from_edges = Graph.__dict__["from_edges"]
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert regpart.refine.energy is not original
        assert regpart.driver.energy is regpart.cli.energy is regpart.refine.energy
        _run_tiny(TINY["graded"], tmp_path)
    finally:
        tracer.uninstall()
    assert regpart.refine.energy is original
    assert Graph.__dict__["from_edges"] is from_edges
    layers = tracing.layer_metrics(tracer.spans)
    self_sum = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert abs(self_sum - layers["trace.span_wall_s"]) < 1e-9
    assert layers["graph.energy_calls"] > 0 and layers["io.edges_parsed"] > 0
    assert {s[4] for s in tracer.spans} == {"test"}


def test_metric_names_and_units_match_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[section]:
            assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for entry in spec["per_layer"]:
        assert run.unit_of(entry["name"]) == entry["unit"]


def test_tiny_smoke_runs(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in TINY.values():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            _, result = run.run(workload, 5, 0.2, trace)
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= run.MIN_REPS
            assert set(result["metrics"]) == {m["name"] for m in spec[section]}
