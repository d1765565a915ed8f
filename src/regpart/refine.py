"""Refinement steps: balancing splits and witness-driven atom refinement.

Both operations only ever refine (each new class sits inside an old one), so
partition energy never decreases across a step. The witness-driven step
additionally guarantees a quantified energy gain whenever the witnessed mass
is large, which is what forces the whole iteration to terminate.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidWitnessError, NotSubsetError, ensure
# energy is not called here; the name stays bound because bench/tests checks
# that span tracing rebinds this module's copy.
from .graph import (  # noqa: F401
    Partition,
    VertexSet,
    energy,
    require_epsilon,
    require_partition,
)
from .regularity import validate_witness


@dataclass(frozen=True)
class BalanceCertificate:
    """Evidence for (or against) the balance of a partition.

    core lists, in ascending order, the indices of the equal-size classes
    chosen to cover the graph; balanced holds when the vertices outside the
    core number at most limit = eps * n.
    """

    balanced: bool
    class_size: int
    core: tuple
    covered: int
    leftover: int
    limit: Fraction


def is_balanced(p, eps):
    """Certify whether p is eps-balanced.

    Among all class sizes, picks the one whose classes cover the most
    vertices (ties resolved toward the smaller size) and measures what is
    left over. Deterministic, so repeated calls certify the same core.
    """
    eps = require_epsilon(eps)
    n = p.ground_size
    by_size = {}
    for idx, cls in enumerate(p):
        by_size.setdefault(cls.size, []).append(idx)
    best_size = min(
        by_size, key=lambda s: (-s * len(by_size[s]), s)
    )
    core = tuple(by_size[best_size])
    covered = best_size * len(core)
    leftover = n - covered
    limit = eps * n
    return BalanceCertificate(
        balanced=leftover <= limit,
        core=core,
        class_size=best_size,
        covered=covered,
        leftover=leftover,
        limit=limit,
    )


def balance_refine(p, eps):
    """Split every class into chunks of ceil(t) vertices, t = eps*n/|p|.

    Vertices are taken in ascending order inside each class; at most one
    chunk per class (the last) is smaller than t. The result refines p, has
    at most (1 + 1/eps)|p| classes, and is eps-balanced: chunks of full size
    ceil(t) cover everything except the per-class remainders, whose total
    size is below |p| * t = eps * n.
    """
    eps = require_epsilon(eps)
    n = p.ground_size
    t = eps * n / len(p)
    chunk = math.ceil(t)
    pieces = []
    for cls in p:
        members = cls.members()
        for start in range(0, cls.size, chunk):
            pieces.append(
                VertexSet.from_iterable(members[start : start + chunk], n)
            )
    q = Partition(pieces)
    ensure(q.refines(p), "balance split does not refine")
    ensure(len(q) <= (1 + 1 / eps) * len(p), "balance split too fine")
    ensure(is_balanced(q, eps).balanced, "balance split not balanced")
    return q


def atom_partition(s, sets):
    """Partition s into the atoms generated by a family of subsets of s.

    Two vertices share an atom exactly when no set of the family separates
    them, so each atom is an intersection of sets and complements-within-s.
    Atoms come out sorted by smallest member; with c distinct sets there are
    at most 2**c of them. Raises NotSubsetError if some set leaks outside s.
    """
    distinct = set()
    atoms = [s.mask] if s.mask else []
    for x in sets:
        if not x.issubset(s):
            raise NotSubsetError(f"{x!r} is not contained in {s!r}")
        if x.mask not in distinct:
            distinct.add(x.mask)
            atoms = [
                part for a in atoms for part in (a & x.mask, a & ~x.mask) if part
            ]
    atoms.sort(key=lambda a: a & -a)
    ensure(len(atoms) <= 2 ** len(distinct), "more atoms than 2**sets")
    return [VertexSet(a, s.capacity) for a in atoms]


def witness_increment(witness):
    """Lower bound |X||Y| (d(X,Y) - d(I,J))^2 this witness forces on the energy gain."""
    gap = witness.d_xy - witness.d_ij
    return witness.x.size * witness.y.size * gap * gap


def _increment_exceeds(e_xy, m_xy, e_ij, m_ij, eps):
    """witness_increment(w) > eps**4 * |I||J|, decided in integers from w's counts.

    e_xy, m_xy = |X||Y|, e_ij and m_ij = |I||J| are the witness's edge counts
    and masses. With cross = e_xy m_ij - e_ij m_xy the gap is
    cross / (m_xy m_ij) and the increment cross^2 / (m_xy m_ij^2); for
    eps = en/ed, multiplying both sides by ed^4 m_xy m_ij^2 > 0 leaves
    cross^2 ed^4 > en^4 m_xy m_ij^3.
    """
    cross = e_xy * m_ij - e_ij * m_xy
    return cross * cross * eps.denominator**4 > eps.numerator**4 * m_xy * m_ij**3


def irregularity_refine(g, p, eps, witnesses):
    """Refine p so that every witness set becomes a union of new classes.

    witnesses maps ordered class-index pairs (a, b) to a PairWitness whose x
    lives in class a and y in class b. Every witness is revalidated from
    scratch, and its increment checked to exceed eps**4 * |I||J| from the
    counts validate_witness returns (in integers, by _increment_exceeds),
    before anything is split. Each class is replaced by the atoms of the
    witness sets that landed in it, so the result refines p with at most
    |p| * 4**|p| classes, and the energy rises by more than

        eps**4 * (witnessed mass),

    which exceeds eps**5 * n**2 whenever the witnessed mass exceeds eps*n**2.
    This function evaluates no energy: regularize records the energy of p and
    of the result, and verify_trace checks that the gain exceeds eps**4
    times a witnessed mass above eps*n**2.
    """
    eps = require_epsilon(eps)
    require_partition(g, p)
    k = len(p)
    per_class = [[] for _ in range(k)]
    for (a, b), w in sorted(witnesses.items()):
        if not (0 <= a < k and 0 <= b < k):
            raise InvalidWitnessError(f"witness key ({a}, {b}) out of range")
        counts = validate_witness(g, p[a], p[b], eps, w)
        ensure(_increment_exceeds(*counts, eps), "small increment")
        per_class[a].append(w.x)
        per_class[b].append(w.y)

    pieces = []
    for idx in range(k):
        atoms = atom_partition(p[idx], per_class[idx])
        # witness sets are unions of new classes; a piece inside x ⊆ p[idx]
        # can only be an atom of p[idx], so checking those atoms suffices
        atom_masks = [atom.mask for atom in atoms]
        for x in per_class[idx]:
            outside = ~x.mask
            covered = 0
            for a in atom_masks:
                if not a & outside:
                    covered |= a
            ensure(covered == x.mask, "witness set not a union of atoms")
        pieces.extend(atoms)
    q = Partition(pieces)

    ensure(q.refines(p), "refinement does not refine")
    ensure(len(q) <= k * 4**k, "more classes than k * 4**k")
    return q
