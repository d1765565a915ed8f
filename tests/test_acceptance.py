"""Acceptance gate: one test per criterion, one printed verdict line each.

The PASS/FAIL lines are written straight to the terminal (bypassing capture)
so a plain `pytest -v` run shows them. Criteria share constructed instances
through module-level caches; everything is exact arithmetic, and the checks
go through two independent routes wherever one exists (closed-form energy vs
explicit projected matrices, pruned search vs unpruned enumeration).
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import random_graph, random_partition, random_refinement
from regpart import (
    Graph,
    Partition,
    VertexSet,
    atom_partition,
    balance_refine,
    balanced_irregularity_bound,
    check_pair_exhaustive,
    check_partition,
    energy,
    find_witness_heuristic,
    irregularity_refine,
    is_balanced,
    regularize,
    validate_witness,
    verify_trace,
    witness_increment,
)
from regpart.cli import main as cli_main
from regpart.generate import gnp, planted
from regpart.oracle import (
    DenseMatrix,
    brute_force_pair_check,
    frobenius_sq,
    inner_product,
    project_partition,
)
from regpart.regularity import (
    IRREGULAR_WITNESSED,
    REGULAR_CERTIFIED,
    UNKNOWN_TREATED_AS_REGULAR,
    VERDICT_IRREGULAR,
)
from test_driver import fabricated_report


@contextmanager
def announce(capsys, num, desc):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")


# ---------------------------------------------------------------- instances

_CACHE = {}


def refinement_pairs():
    """100 (graph, partition, refinement) triples, n <= 32, fixed seed."""
    if "pairs" not in _CACHE:
        rng = random.Random(9001)
        pairs = []
        for _ in range(100):
            n = rng.randint(2, 32)
            g = random_graph(rng, n)
            p = random_partition(rng, n)
            q = random_refinement(rng, p)
            pairs.append((g, p, q))
        _CACHE["pairs"] = pairs
    return _CACHE["pairs"]


def irregular_instances():
    """50 constructed irregular instances, n <= 40, exhaustive-checkable."""
    out = []
    g = Graph.from_edges(4, [(0, 2)])
    p = Partition.from_sets([[0, 1], [2, 3]], 4)
    out.append((g, p, Fraction(2, 5)))
    # two classes of m, complete bipartite plant between the first halves
    for m in range(2, 14):
        n = 2 * m
        h = (m + 1) // 2
        edges = [(u, v) for u in range(h) for v in range(m, m + h)]
        g = Graph.from_edges(n, edges)
        p = Partition.from_sets([list(range(m)), list(range(m, n))], n)
        for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)):
            out.append((g, p, eps))
    # four classes of m, plants across (0,1) and (2,3)
    for m in range(3, 9):
        n = 4 * m
        h = (m + 1) // 2
        cross = [(u, v) for u in range(h) for v in range(m, m + h)]
        edges = cross + [(u + 2 * m, v + 2 * m) for u, v in cross]
        g = Graph.from_edges(n, edges)
        p = Partition.from_sets(
            [list(range(k * m, (k + 1) * m)) for k in range(4)], n
        )
        for eps in (Fraction(1, 8), Fraction(1, 5)):
            out.append((g, p, eps))
    # dense pair with a planted hole
    m, h = 6, 3
    n = 2 * m
    edges = [
        (u, v)
        for u in range(m)
        for v in range(m, n)
        if not (u < h and v < m + h)
    ]
    g = Graph.from_edges(n, edges)
    p = Partition.from_sets([list(range(m)), list(range(m, n))], n)
    out.append((g, p, Fraction(1, 4)))
    assert len(out) == 50
    return out


def irregular_runs():
    """Criterion 4 artifacts: (g, p, eps, report, refined, gain) per instance."""
    if "irregular" not in _CACHE:
        runs = []
        for g, p, eps in irregular_instances():
            report = check_partition(g, p, eps)
            witnesses = report.witnesses()
            q = irregularity_refine(g, p, eps, witnesses)
            gain = energy(g, q) - energy(g, p)
            runs.append((g, p, eps, report, q, gain))
        _CACHE["irregular"] = runs
    return _CACHE["irregular"]


def two_cliques():
    edges = [(u, v) for u, v in itertools.combinations(range(8), 2)]
    edges += [(u + 8, v + 8) for u, v in itertools.combinations(range(8), 2)]
    return Graph.from_edges(16, edges)


def driver_battery():
    """Traces for criteria 7 and 9: (eps, n, trace) per run."""
    if "battery" not in _CACHE:
        straddle = Partition.from_sets(
            [[0, 1, 8, 9], [2, 3, 10, 11], [4, 5, 12, 13], [6, 7, 14, 15]], 16
        )
        single = Graph.from_edges(4, [(0, 2)])
        single_p0 = Partition.from_sets([[0, 1], [2, 3]], 4)
        runs = [
            (Graph.empty(8), None, Fraction(1, 4), {}),
            (single, single_p0, Fraction(2, 5), {}),
            (two_cliques(), straddle, Fraction(1, 4), {}),
            (two_cliques(), straddle, Fraction(1, 10), {}),
            (planted(2, 16, "9/10", "1/10", 42), None, Fraction(1, 4), {}),
            (gnp(12, "1/2", 7), None, Fraction(1, 4), {}),
            (gnp(12, "1/2", 2), None, Fraction(1, 5), {}),
            (gnp(14, "1/2", 2), None, Fraction(1, 4), {}),
            (gnp(16, "1/2", 5), None, Fraction(1, 5), {}),
            (single, single_p0, Fraction(2, 5), {"max_classes": 3}),
        ]
        out = []
        for g, p0, eps, settings in runs:
            trace = regularize(g, p0, eps, **settings)
            out.append((eps, g.n, trace))
        _CACHE["battery"] = out
    return _CACHE["battery"]


# ---------------------------------------------------------------- criteria


def test_criterion_01_pythagoras(capsys):
    desc = "energy difference equals residual Frobenius norm, 100 pairs, exact"
    with announce(capsys, 1, desc):
        start = time.perf_counter()
        for g, p, q in refinement_pairs():
            a = DenseMatrix.from_graph(g)
            mp = project_partition(a, p)
            mq = project_partition(a, q)
            residual = frobenius_sq(mq - mp)
            assert energy(g, q) - energy(g, p) == residual
            assert inner_product(mp, mq - mp) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s, budget is 10s"


def test_criterion_02_monotonicity(capsys):
    desc = "refinement never lowers energy, same 100 pairs, exact"
    with announce(capsys, 2, desc):
        for g, p, q in refinement_pairs():
            assert energy(g, q) >= energy(g, p)


def test_criterion_03_balance_bounds(capsys):
    desc = "balance split: class bound and leftover <= eps*n, 200 instances"
    with announce(capsys, 3, desc):
        rng = random.Random(4242)
        eps_pool = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
        for k in range(200):
            n = rng.randint(1, 200)
            p = random_partition(rng, n)
            eps = eps_pool[k % 4]
            q = balance_refine(p, eps)
            assert q.refines(p)
            assert len(q) <= (1 + 1 / eps) * len(p)
            cert = is_balanced(q, eps)
            assert cert.balanced
            assert cert.leftover <= eps * n


def test_criterion_04_refine_bounds(capsys):
    desc = "witnessed refine: energy gain > eps^5*n^2 and class bound, 50 instances"
    with announce(capsys, 4, desc):
        runs = irregular_runs()
        assert len(runs) == 50
        for g, p, eps, report, q, gain in runs:
            n = g.n
            assert report.verdict == VERDICT_IRREGULAR
            assert report.irregular_mass > eps * n * n
            assert gain > eps**5 * n * n
            assert len(q) <= len(p) * 4 ** len(p)
        # the n=4 worked example, exactly
        g, p, eps, report, q, gain = runs[0]
        assert gain == Fraction(3, 2)
        assert Fraction(16384, 100000) == eps**5 * 16
        assert gain > Fraction(16384, 100000)


def test_criterion_05_per_witness_increment(capsys):
    desc = "every witness: |X||Y|(d_XY - d_IJ)^2 > eps^4|I||J|, exact"
    with announce(capsys, 5, desc):
        seen = 0
        for g, p, eps, report, q, gain in irregular_runs():
            for (a, b), w in report.witnesses().items():
                validate_witness(g, p[a], p[b], eps, w)
                assert witness_increment(w) > eps**4 * p[a].size * p[b].size
                seen += 1
        assert seen >= 50
        # hand value for the canonical witness
        g = Graph.from_edges(4, [(0, 2)])
        p = Partition.from_sets([[0, 1], [2, 3]], 4)
        w = check_partition(g, p, Fraction(2, 5)).witnesses()[(0, 1)]
        assert witness_increment(w) == Fraction(9, 16)
        assert Fraction(9, 16) > Fraction(2, 5) ** 4 * 4


def test_criterion_06_atom_bound(capsys):
    desc = "atoms: count <= 2^|C|, members are unions, atoms partition S, 100 instances"
    with announce(capsys, 6, desc):
        rng = random.Random(606)
        for _ in range(100):
            cap = rng.randint(1, 40)
            s = VertexSet(rng.randint(1, (1 << cap) - 1), cap)
            c = [
                VertexSet(rng.getrandbits(cap) & s.mask, cap)
                for _ in range(rng.randint(0, 6))
            ]
            atoms = atom_partition(s, c)
            assert len(atoms) <= 2 ** len(c)
            union = 0
            for a in atoms:
                assert a.size > 0
                assert a.mask & union == 0
                union |= a.mask
            assert union == s.mask
            for x in c:
                assert sum(a.mask for a in atoms if a.issubset(x)) == x.mask


def test_criterion_07_termination(capsys):
    desc = "refine_count <= floor(eps^-5) with heavy steps; energy <= n^2 throughout"
    with announce(capsys, 7, desc):
        for eps, n, trace in driver_battery():
            threshold = eps * n * n
            for step in trace.steps:
                assert step.energy <= n * n
                if step.phase == "refine":
                    assert step.irregular_mass > threshold
            assert trace.refine_count <= math.floor((1 / eps) ** 5)
            verify_trace(trace, eps, n)
        assert any(t.refine_count >= 2 for _, _, t in driver_battery())


def test_criterion_08_oracle_agreement(capsys):
    desc = "pruned and brute-force pair checks agree on 500 sampled pairs"
    with announce(capsys, 8, desc):
        rng = random.Random(808)
        eps_pool = [Fraction(1, 4), Fraction(1, 2)]
        irregular = 0
        for k in range(500):
            n = rng.randint(2, 10)
            g = random_graph(rng, n)
            verts = list(range(n))
            rng.shuffle(verts)
            si = rng.randint(1, min(5, n))
            i = VertexSet.from_iterable(verts[:si], n)
            if n - si >= 1 and rng.random() < 0.8:
                sj = rng.randint(1, min(5, n - si))
                j = VertexSet.from_iterable(verts[si : si + sj], n)
            else:
                j = i
            eps = eps_pool[k % 2]
            fast = check_pair_exhaustive(g, i, j, eps)
            slow = brute_force_pair_check(g, i, j, eps)
            assert fast.kind == slow.kind
            if fast.kind == IRREGULAR_WITNESSED:
                irregular += 1
                validate_witness(g, i, j, eps, fast.witness)
                validate_witness(g, i, j, eps, slow.witness)
            guess = find_witness_heuristic(g, i, j, eps)
            if fast.kind == REGULAR_CERTIFIED:
                # the heuristic must never contradict a certified verdict
                assert guess.kind == UNKNOWN_TREATED_AS_REGULAR
            elif guess.kind == IRREGULAR_WITNESSED:
                validate_witness(g, i, j, eps, guess.witness)
        assert irregular > 0


def test_criterion_09_core_bound(capsys):
    desc = "irregular pairs in the core <= eps(1-eps)^-2|C|^2 on every terminating run"
    with announce(capsys, 9, desc):
        checked = 0
        for eps, n, trace in driver_battery():
            if trace.final_report is None:
                continue
            out = balanced_irregularity_bound(trace.final_report)
            if out is None:
                continue
            assert out.holds
            checked += 1
        assert checked >= 8
        # hand arithmetic: eps=1/10, |C|=10, t=2, n=21
        out12 = balanced_irregularity_bound(fabricated_report(12))
        assert out12.bound == Fraction(1000, 81)
        assert out12.holds
        assert not balanced_irregularity_bound(fabricated_report(13)).holds


def _cli_planted_run(workdir):
    graph = workdir / "g.txt"
    part = workdir / "p.txt"
    trace = workdir / "t.json"
    code = cli_main(
        [
            "gen", "--model", "planted", "--blocks", "2", "--block-size", "16",
            "--p-in", "9/10", "--p-out", "1/10", "--seed", "42",
            "--out", str(graph),
        ]
    )
    assert code == 0
    code = cli_main(
        [
            "regularize", "--graph", str(graph), "--epsilon", "1/4",
            "--out", str(part), "--trace", str(trace),
        ]
    )
    assert code in (0, 2)
    return graph.read_bytes(), part.read_bytes(), trace.read_bytes()


def _refine_rows_strictly_increase(trace_text):
    prev = None
    refine_rows = 0
    for step in json.loads(trace_text)["steps"]:
        current = Fraction(step["energy"])
        if step["phase"] == "refine":
            refine_rows += 1
            assert prev is not None and current > prev
        if prev is not None:
            assert current >= prev
        prev = current
    return refine_rows


def test_criterion_10_cli_determinism(capsys, tmp_path):
    desc = "two identical CLI runs byte-identical; energy strictly rises at refines"
    with announce(capsys, 10, desc):
        d1 = tmp_path / "run1"
        d2 = tmp_path / "run2"
        d1.mkdir()
        d2.mkdir()
        first = _cli_planted_run(d1)
        second = _cli_planted_run(d2)
        assert first == second
        _refine_rows_strictly_increase((d1 / "t.json").read_text())

        # supplementary runs with actual refine rows, same strictness
        g1 = tmp_path / "single.txt"
        g1.write_text("0 2\n")
        p1 = tmp_path / "single_p0.txt"
        p1.write_text("0: 0 1\n1: 2 3\n")
        t1 = tmp_path / "single_t.json"
        code = cli_main(
            [
                "regularize", "--graph", str(g1), "--partition", str(p1),
                "--epsilon", "2/5", "--trace", str(t1),
            ]
        )
        assert code == 0
        assert _refine_rows_strictly_increase(t1.read_text()) == 1

        g2 = tmp_path / "g2.txt"
        t2 = tmp_path / "g2_t.json"
        code = cli_main(
            [
                "gen", "--model", "gnp", "--n", "12", "--p", "1/2",
                "--seed", "2", "--out", str(g2),
            ]
        )
        assert code == 0
        code = cli_main(
            ["regularize", "--graph", str(g2), "--epsilon", "1/5", "--trace", str(t2)]
        )
        assert code in (0, 2)
        assert _refine_rows_strictly_increase(t2.read_text()) == 2
