"""Alternating balance/refine iteration, with termination and size accounting.

One round balances the current partition (when it is not already balanced),
classifies every class pair, and either stops (nothing irregular enough was
witnessed) or refines along the witnesses and goes again. Each refining round
adds more than eps**5 * n**2 to an energy that can never pass n**2, so at most
floor(eps**-5) refining rounds can happen; the class budget merely stops the
walk earlier, as an honest status rather than an error.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidPartitionError, ensure
from .graph import Partition, energy, require_epsilon
from .refine import balance_refine, is_balanced, irregularity_refine
from .regularity import VERDICT_IRREGULAR, check_partition

# A finished run's status is the final verdict (regular or
# heuristically_regular), or this marker when the class budget stopped it.
STATUS_BUDGET = "class_budget_exceeded"

PHASE_BALANCE = "balance"
PHASE_REFINE = "refine"

DEFAULT_MAX_CLASSES = 4096

# tower_bound reports values of more decimal digits than this as astronomical.
TOWER_DIGIT_CAP = 10000


@dataclass(frozen=True)
class TraceStep:
    """One completed phase.

    A balance step records the partition that was just certified balanced
    (split applied only when needed) together with the classification verdict
    and irregular mass found on it. A refine step records the partition
    produced by the refinement, while its mass and verdict are the ones that
    drove the refinement, so irregular_mass says how much witnessed mass that
    step consumed.
    """

    phase: str
    num_classes: int
    energy: Fraction
    irregular_mass: int
    verdict: str


@dataclass
class RunTrace:
    steps: list = field(default_factory=list)
    final: Partition | None = None
    status: str | None = None
    # Kept so callers can inspect or serialize the last classification
    # without re-running it.
    final_report: object = None

    @property
    def refine_count(self):
        return sum(1 for step in self.steps if step.phase == PHASE_REFINE)


def _trace_step(phase, p, e, report):
    """Record a phase on partition p of energy e; mass and verdict from report."""
    return TraceStep(phase, len(p), e, report.irregular_mass, report.verdict)


def verify_trace(trace, eps, n):
    """Re-check every trace invariant after the fact; raises AssertionError.

    Energy never falls. Each refine step follows the balance step that
    classified the partition it refined, so the energy difference between
    the two is that refinement's gain: it must exceed eps**4 times the
    witnessed mass, and eps**5 * n**2 when that mass exceeds eps * n**2.
    """
    eps = require_epsilon(eps)
    n_sq = n * n
    threshold = eps * n_sq
    eps4 = eps**4
    gain_floor = eps**5 * n_sq
    prev = None
    all_heavy = True
    for step in trace.steps:
        ensure(step.energy <= n_sq, "energy above n**2")
        if prev is not None:
            ensure(step.energy >= prev.energy, "energy fell")
        if step.phase == PHASE_REFINE:
            ensure(
                prev is not None and prev.phase == PHASE_BALANCE,
                "a refine step must follow a balance step",
            )
            gain = step.energy - prev.energy
            if step.irregular_mass:
                ensure(gain > eps4 * step.irregular_mass, "gain <= eps**4 * mass")
            if step.irregular_mass > threshold:
                ensure(gain > gain_floor, "gain <= eps**5 * n**2")
            else:
                all_heavy = False
        prev = step
    if all_heavy:
        ensure(trace.refine_count <= math.floor((1 / eps) ** 5), "refines > eps**-5")


def regularize(g, p0, eps, max_classes=DEFAULT_MAX_CLASSES):
    """Run the alternating iteration to a certified stop.

    p0 of None means the one-class partition. Stops with status regular or
    heuristically_regular once the current partition is balanced and its
    classification finds no irregular excess, or with class_budget_exceeded
    when the next split would leave more than max_classes classes (the
    oversized partition is discarded; final keeps the last good one).
    """
    eps = require_epsilon(eps)
    if p0 is None:
        p0 = Partition.single(g.n)
    if p0.ground_size != g.n:
        raise InvalidPartitionError("initial partition does not match the graph")

    trace = RunTrace()
    p = p0
    n = g.n
    report = None

    if len(p) > max_classes:
        trace.final = p
        trace.status = STATUS_BUDGET
        return trace

    e = None  # energy of p, evaluated once each time p changes
    while True:
        if not is_balanced(p, eps).balanced:
            q = balance_refine(p, eps)
            if len(q) > max_classes:
                trace.status = STATUS_BUDGET
                break
            p, e = q, None
        report = check_partition(g, p, eps)
        if e is None:
            e = energy(g, p)
        trace.steps.append(_trace_step(PHASE_BALANCE, p, e, report))
        if report.verdict != VERDICT_IRREGULAR:
            trace.status = report.verdict
            break
        q = irregularity_refine(g, p, eps, report.witnesses())
        if len(q) > max_classes:
            trace.status = STATUS_BUDGET
            break
        p, e = q, energy(g, q)
        trace.steps.append(_trace_step(PHASE_REFINE, p, e, report))
        report = None  # describes the pre-refine partition, now stale

    trace.final = p
    trace.final_report = report
    verify_trace(trace, eps, n)
    if trace.status != STATUS_BUDGET:
        ensure(is_balanced(p, eps).balanced, "final partition not balanced")
        result = balanced_irregularity_bound(report)
        ensure(result is None or result.holds, "core irregularity bound fails")
    return trace


@dataclass(frozen=True)
class TowerBound:
    """Upper bound for the final class count, or a marker that it is absurd."""

    value: int | None
    astronomical: bool


def tower_bound(eps, p0_size):
    """Iterate x -> (1 + 1/eps) * x * 4**ceil(x), floor(eps**-5) times.

    Starts from (1 + 1/eps) * p0_size. The ceiling in the exponent makes each
    iterate an upper bound for the fractional-exponent expression, so the
    result is a valid conservative bound on the number of classes the
    iteration can produce. Values beyond TOWER_DIGIT_CAP decimal digits come
    back as astronomical instead of an integer.
    """
    eps = require_epsilon(eps)
    if p0_size < 1:
        raise ValueError("p0_size must be >= 1")
    rounds = math.floor((1 / eps) ** 5)
    factor = 1 + 1 / eps
    limit = 10**TOWER_DIGIT_CAP
    x = factor * p0_size
    for _ in range(rounds):
        e = math.ceil(x)
        if e > 2 * TOWER_DIGIT_CAP:
            # 4**e alone would have about 0.6 * e > TOWER_DIGIT_CAP digits.
            return TowerBound(value=None, astronomical=True)
        x = factor * x * 4**e
        if x >= limit:
            return TowerBound(value=None, astronomical=True)
    value = math.ceil(x)
    if value >= limit:
        return TowerBound(value=None, astronomical=True)
    return TowerBound(value=value, astronomical=False)


@dataclass(frozen=True)
class CoreBoundResult:
    """Both sides of the closing bound on irregular pairs within the core.

    holds compares the witnessed-irregular ordered pair count s inside the
    core against eps * (1 - eps)**-2 * |C|**2. The mass fields report the
    companion comparison s * t**2 vs eps * n**2 without folding it into
    holds, since the two inequalities are logically independent inputs to
    the chain that links them.
    """

    irregular_pairs: int
    core_size: int
    class_size: int
    bound: Fraction
    holds: bool
    mass: int
    mass_limit: Fraction
    mass_within_threshold: bool


def balanced_irregularity_bound(report):
    """Count witnessed-irregular ordered pairs inside the balance core.

    The core C and its class size t come from
    is_balanced(report.partition, report.eps). Returns None when the bound
    does not apply: the partition is not balanced, or eps >= 1. Otherwise
    returns the count s, the bound eps*(1-eps)**-2*|C|**2, whether s is
    within it, and the mass comparison s*t**2 vs report.threshold, the
    report's eps*n**2.
    """
    eps = report.eps
    cert = is_balanced(report.partition, eps)
    if not cert.balanced or eps >= 1:
        return None
    core = set(cert.core)
    s = sum(
        1 if a == b else 2
        for a, b in report.witnesses()
        if a in core and b in core
    )
    k = len(core)
    t = cert.class_size
    bound = eps * (1 - eps) ** -2 * k * k
    mass = s * t * t
    mass_limit = report.threshold
    return CoreBoundResult(
        irregular_pairs=s,
        core_size=k,
        class_size=t,
        bound=bound,
        holds=s <= bound,
        mass=mass,
        mass_limit=mass_limit,
        mass_within_threshold=mass <= mass_limit,
    )
