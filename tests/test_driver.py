import ast
import dataclasses
import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_graph
import regpart
from regpart import (
    BadEpsilonError,
    BadParamsError,
    Graph,
    InvalidPartitionError,
    Partition,
    RegularityReport,
    VertexSet,
    balanced_irregularity_bound,
    check_partition,
    energy,
    irregularity_refine,
    is_balanced,
    regularize,
    tower_bound,
    verify_trace,
)
from regpart import driver
from regpart.generate import gnp, planted
from regpart.regularity import IRREGULAR_WITNESSED, PairClassification


def two_cliques():
    edges = [(u, v) for u, v in itertools.combinations(range(8), 2)]
    edges += [(u + 8, v + 8) for u, v in itertools.combinations(range(8), 2)]
    return Graph.from_edges(16, edges)


STRADDLE = [[0, 1, 8, 9], [2, 3, 10, 11], [4, 5, 12, 13], [6, 7, 14, 15]]


class TestRegularize:
    def test_empty_graph_one_balance_step(self):
        trace = regularize(Graph.empty(8), None, Fraction(1, 4))
        assert trace.status == "regular"
        assert trace.refine_count == 0
        assert [s.phase for s in trace.steps] == ["balance"]
        assert trace.steps[0].energy == 0
        assert len(trace.final) == 1

    def test_single_edge_one_refine_to_singletons(self):
        g = Graph.from_edges(4, [(0, 2)])
        p0 = Partition.from_sets([[0, 1], [2, 3]], 4)
        trace = regularize(g, p0, Fraction(2, 5))
        assert trace.status == "regular"
        assert trace.refine_count == 1
        assert trace.final == Partition.discrete(4)
        phases = [s.phase for s in trace.steps]
        assert phases == ["balance", "refine", "balance"]
        refine = trace.steps[1]
        assert refine.irregular_mass == 8
        assert refine.energy - trace.steps[0].energy == Fraction(3, 2)
        assert trace.final_report.verdict == "regular"

    def test_unbalanced_start_gets_split(self):
        g = Graph.empty(10)
        p0 = Partition.from_sets([[0, 1, 2, 3, 4, 5, 6], [7, 8, 9]], 10)
        trace = regularize(g, p0, Fraction(1, 10))
        assert trace.status == "regular"
        assert trace.steps[0].num_classes > 2
        assert is_balanced(trace.final, Fraction(1, 10)).balanced

    def test_two_cliques_eps_quarter(self):
        trace = regularize(two_cliques(), Partition.from_sets(STRADDLE, 16), Fraction(1, 4))
        assert trace.status == "regular"
        assert trace.refine_count == 1
        # every class ends up inside one clique
        for cls in trace.final:
            side = {v // 8 for v in cls.members()}
            assert len(side) == 1

    def test_two_cliques_tight_eps(self):
        trace = regularize(two_cliques(), Partition.from_sets(STRADDLE, 16), Fraction(1, 10))
        assert trace.status == "regular"
        assert trace.refine_count >= 1

    def test_planted_blind_heuristic(self):
        # both blocks have the same degree profile, so the degree-deviation
        # tier sees nothing on the single oversized class
        g = planted(2, 16, "9/10", "1/10", 42)
        trace = regularize(g, None, Fraction(1, 4))
        assert trace.status == "heuristically_regular"
        assert trace.refine_count == 0

    def test_planted_within_budgets(self):
        g = planted(2, 16, "9/10", "1/10", 42)
        trace = regularize(g, None, Fraction(1, 4))
        assert trace.refine_count <= 4**5
        assert len(trace.final) <= 4096

    def test_budget_stop_discards_oversized_refine(self):
        g = Graph.from_edges(4, [(0, 2)])
        p0 = Partition.from_sets([[0, 1], [2, 3]], 4)
        trace = regularize(g, p0, Fraction(2, 5), max_classes=3)
        assert trace.status == "class_budget_exceeded"
        assert trace.refine_count == 0
        assert trace.final == p0
        assert [s.phase for s in trace.steps] == ["balance"]
        assert trace.steps[0].verdict == "irregular"
        # the check that drove the dropped refinement is the check of final
        assert trace.final_report.partition == trace.final
        assert trace.final_report.verdict == "irregular"

    def test_budget_stop_discards_oversized_balance_split(self):
        # [3, 1, 1] is not balanced at eps 1/4, and its split has 5 classes
        p0 = Partition.from_sets([[0, 1, 2], [3], [4]], 5)
        trace = regularize(Graph.empty(5), p0, Fraction(1, 4), max_classes=3)
        assert not is_balanced(p0, Fraction(1, 4)).balanced
        assert trace.status == "class_budget_exceeded"
        assert trace.steps == []
        assert trace.final == p0
        assert trace.final_report is None

    def test_budget_stop_after_a_refine_keeps_no_stale_report(self):
        # gnp(24, 1/2, seed 3) at eps 1/5: the one class is refined into 4
        # unbalanced classes, whose balance split has 13
        trace = regularize(gnp(24, "1/2", 3), None, Fraction(1, 5), max_classes=12)
        assert trace.status == "class_budget_exceeded"
        assert [s.phase for s in trace.steps] == ["balance", "refine"]
        assert len(trace.final) == 4
        assert trace.final_report is None

    def test_budget_too_small_for_initial(self):
        trace = regularize(Graph.empty(10), Partition.discrete(10), 1, max_classes=5)
        assert trace.status == "class_budget_exceeded"
        assert trace.steps == []
        assert trace.final == Partition.discrete(10)
        assert trace.final_report is None

    @pytest.mark.parametrize("max_classes", [0, -3])
    def test_budget_below_one_is_a_bad_parameter(self, max_classes):
        with pytest.raises(BadParamsError, match="max_classes must be at least 1"):
            regularize(Graph.empty(4), None, Fraction(1, 4), max_classes=max_classes)

    def test_mismatched_p0(self):
        with pytest.raises(InvalidPartitionError):
            regularize(Graph.empty(4), Partition.single(5), 1)

    def test_bad_epsilon(self):
        with pytest.raises(BadEpsilonError):
            regularize(Graph.empty(4), None, 0)

    def test_exit_state_certified(self):
        rng = random.Random(77)
        for _ in range(8):
            n = rng.randint(3, 14)
            g = random_graph(rng, n)
            eps = rng.choice([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
            trace = regularize(g, None, eps)
            assert trace.status in ("regular", "heuristically_regular")
            assert is_balanced(trace.final, eps).balanced
            assert trace.final_report.verdict != "irregular"
            verify_trace(trace, eps, n)

    def test_deterministic_reruns(self):
        g = gnp(12, "1/2", 7)
        t1 = regularize(g, None, Fraction(1, 4))
        t2 = regularize(g, None, Fraction(1, 4))
        assert t1.steps == t2.steps
        assert t1.final == t2.final


@pytest.mark.parametrize(
    "run",
    [
        lambda g, p: energy(g, p),
        lambda g, p: check_partition(g, p, Fraction(1, 4)),
        lambda g, p: irregularity_refine(g, p, Fraction(1, 4), {}),
        lambda g, p: regularize(g, p, Fraction(1, 4)),
    ],
    ids=["energy", "check_partition", "irregularity_refine", "regularize"],
)
@pytest.mark.parametrize(
    "p",
    [[VertexSet.full(4)], Partition.single(5)],
    ids=["list of vertex sets", "partition of another size"],
)
def test_partition_must_match_the_graph(run, p):
    with pytest.raises(InvalidPartitionError, match="partition does not match the graph"):
        run(Graph.empty(4), p)


class TestVerifyTrace:
    def test_catches_energy_regression(self):
        g = Graph.from_edges(4, [(0, 2)])
        p0 = Partition.from_sets([[0, 1], [2, 3]], 4)
        trace = regularize(g, p0, Fraction(2, 5))
        trace.steps[1], trace.steps[2] = trace.steps[2], trace.steps[1]
        with pytest.raises(AssertionError):
            verify_trace(trace, Fraction(2, 5), 4)

    def test_catches_gain_below_eps4_witnessed_mass(self):
        # mass 8 > eps*n^2 = 32/5; a forged gain of 9/50 clears
        # eps^5*n^2 = 512/3125 but not eps^4*mass = 128/625
        eps = Fraction(2, 5)
        g = Graph.from_edges(4, [(0, 2)])
        p0 = Partition.from_sets([[0, 1], [2, 3]], 4)
        trace = regularize(g, p0, eps)
        before, refine = trace.steps[0], trace.steps[1]
        assert refine.irregular_mass == 8
        trace.steps[1] = dataclasses.replace(
            refine, energy=before.energy + Fraction(9, 50)
        )
        with pytest.raises(AssertionError):
            verify_trace(trace, eps, 4)

    def test_catches_refine_on_mass_at_most_eps_n_sq(self):
        # regularize refines only on mass > eps*n^2 = 32/5; a forged mass of 6
        # keeps the real gain above eps^4*mass, yet the step is still refused
        eps = Fraction(2, 5)
        g = Graph.from_edges(4, [(0, 2)])
        p0 = Partition.from_sets([[0, 1], [2, 3]], 4)
        trace = regularize(g, p0, eps)
        before, refine = trace.steps[0], trace.steps[1]
        assert refine.energy - before.energy > eps**4 * 6
        trace.steps[1] = dataclasses.replace(refine, irregular_mass=6)
        with pytest.raises(AssertionError, match="mass <= eps"):
            verify_trace(trace, eps, 4)


class TestChecksSurviveOptimize:
    """python -O strips assert statements; the runtime certificates must stay."""

    PACKAGE = Path(regpart.__file__).parent

    def test_no_assert_statements(self):
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(self.PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_forged_trace_caught_under_dash_o(self):
        # the step swap of test_catches_energy_regression, run under -O; the
        # child uses no assert of its own and exits 0 only if verify_trace raised
        code = textwrap.dedent(
            """
            import sys
            from fractions import Fraction
            from regpart import Graph, Partition, regularize, verify_trace

            if __debug__:
                sys.exit("not running under -O")
            g = Graph.from_edges(4, [(0, 2)])
            p0 = Partition.from_sets([[0, 1], [2, 3]], 4)
            trace = regularize(g, p0, Fraction(2, 5))
            trace.steps[1], trace.steps[2] = trace.steps[2], trace.steps[1]
            try:
                verify_trace(trace, Fraction(2, 5), 4)
            except AssertionError:
                sys.exit(0)
            sys.exit("verify_trace accepted a forged trace")
            """
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env={**os.environ, "PYTHONPATH": str(self.PACKAGE.parent)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr


class TestTowerBound:
    def test_known_values(self):
        assert tower_bound(1, 1) == 64
        assert tower_bound(1, 2) == 2048

    def test_half_is_astronomical(self):
        assert tower_bound(Fraction(1, 2), 1) is None

    def test_zero_rounds_above_one(self):
        assert tower_bound(2, 2) == 3  # floor((1/2)**5) = 0 rounds

    def test_digit_cap(self, monkeypatch):
        monkeypatch.setattr(driver, "TOWER_DIGIT_CAP", 1)
        assert tower_bound(1, 1) is None
        monkeypatch.setattr(driver, "TOWER_DIGIT_CAP", 2)
        assert tower_bound(1, 1) == 64

    @pytest.mark.parametrize("cap", [150, 180, 200])
    def test_digit_cap_mid_run(self, monkeypatch, cap):
        # eps 4/5 from one class: three rounds from 9/4, whose iterates are
        # 324, then 729 * 4**324 (198 digits). At cap 150 the exponent 324 is
        # already past 2 * cap; at 180 the 198-digit iterate is past the
        # limit; at 200 it is not, but the next exponent is past 2 * cap.
        monkeypatch.setattr(driver, "TOWER_DIGIT_CAP", cap)
        assert tower_bound(Fraction(4, 5), 1) is None

    def test_monotone_in_start(self):
        assert tower_bound(1, 2) > tower_bound(1, 1)

    def test_bad_inputs(self):
        with pytest.raises(BadEpsilonError):
            tower_bound(0, 1)
        with pytest.raises(ValueError):
            tower_bound(1, 0)


def fabricated_report(num_irregular):
    """n=21: ten classes of two plus a leftover singleton; s ordered pairs irregular.

    The off-diagonal pairs (0, 1), (0, 2), ... count twice each, as (a, b)
    and (b, a); an odd s adds the diagonal pair (9, 9), which counts once.
    """
    sets = [[2 * k, 2 * k + 1] for k in range(10)] + [[20]]
    p = Partition.from_sets(sets, 21)
    pairs = [(0, b) for b in range(1, num_irregular // 2 + 1)]
    pairs += [(9, 9)] * (num_irregular % 2)
    flagged = {pair: PairClassification(IRREGULAR_WITNESSED, None) for pair in pairs}
    return RegularityReport(partition=p, eps=Fraction(1, 10), flagged=flagged)


class TestBalancedIrregularityBound:
    def test_hand_case_true(self):
        rep = fabricated_report(12)
        out = balanced_irregularity_bound(rep)
        assert rep.irregular_mass == 48
        assert out.irregular_pairs == 12
        assert out.core_size == 10
        assert out.class_size == 2
        assert out.bound == Fraction(1000, 81)
        assert out.holds
        # the companion mass inequality fails here: 48 > 441/10
        assert out.mass == 48
        assert out.mass_limit == Fraction(441, 10)
        assert not out.mass_within_threshold

    def test_hand_case_false(self):
        rep = fabricated_report(13)
        out = balanced_irregularity_bound(rep)
        assert not out.holds

    def test_zero_irregular_always_holds(self):
        rep = fabricated_report(0)
        out = balanced_irregularity_bound(rep)
        assert out.holds and out.irregular_pairs == 0

    def test_degenerate_epsilon(self):
        rep = dataclasses.replace(fabricated_report(0), eps=Fraction(1))
        assert balanced_irregularity_bound(rep) is None

    def test_unbalanced_gives_none(self):
        # eleven singletons outcover the class of 10, which is left over
        sets = [list(range(10))] + [[v] for v in range(10, 21)]
        p = Partition.from_sets(sets, 21)
        rep = RegularityReport(partition=p, eps=Fraction(1, 10), flagged={})
        assert balanced_irregularity_bound(rep) is None

    def test_counts_only_core_pairs(self):
        # class 10 is the singleton outside the core: its witnessed pairs add
        # to the irregular mass but not to the core count
        rep = fabricated_report(12)
        flagged = dict(rep.flagged)
        for pair in [(0, 10), (10, 10)]:
            flagged[pair] = PairClassification(IRREGULAR_WITNESSED, None)
        rep = dataclasses.replace(rep, flagged=flagged)
        out = balanced_irregularity_bound(rep)
        assert rep.irregular_mass == 48 + 2 * 2 + 1
        assert out.irregular_pairs == 12
        assert out.core_size == 10
