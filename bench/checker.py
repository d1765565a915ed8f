"""Independent checks of regpart's CLI output, from the benchmark's own graph.

Nothing here imports regpart. The adjacency comes from the edge list the
benchmark generated, densities and energies are recomputed in exact
arithmetic, and pair regularity is decided by a closed-form enumeration
that shares no code with regpart.regularity: for a fixed X, the densest
and sparsest Y of each size are the top and bottom vertices by edge count
into X, so enumerating X alone decides whether a violating (X, Y) exists.

Each check returns a list of problems; an empty list means the output is
correct. Checks are cached by the exact bytes of the output, so repeated
identical outputs are verified once.
"""

import hashlib
import json
import math
from fractions import Fraction

REGULAR_CERTIFIED = "regular_certified"
IRREGULAR_WITNESSED = "irregular_witnessed"
UNKNOWN = "unknown_treated_as_regular"

# Largest |I| + |J| this module decides exactly; regpart's default
# exhaustive cutoff, so every pair regpart must certify is covered.
DECIDE_CUTOFF = 26

REGULARIZE_EXIT = {"regular": 0, "heuristically_regular": 2, "class_budget_exceeded": 3}


def adjacency(n, edges):
    """Row bitmasks: bit v of row u is set when {u, v} is an edge."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def mask_of(vertices):
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def edge_count(rows, xs, y_mask):
    """Ordered pairs (x, y) in xs x Y with x adjacent to y."""
    return sum((rows[x] & y_mask).bit_count() for x in xs)


def density(rows, xs, ys):
    return Fraction(edge_count(rows, xs, mask_of(ys)), len(xs) * len(ys))


def energy(rows, classes):
    """Sum over ordered class pairs of e(I, J)^2 / (|I||J|)."""
    masks = [mask_of(c) for c in classes]
    total = Fraction(0)
    for a in classes:
        for mask, b in zip(masks, classes):
            e = edge_count(rows, a, mask)
            if e:
                total += Fraction(e * e, len(a) * len(b))
    return total


def pair_is_regular(rows, i, j, eps):
    """Exact eps-regularity of the class pair (i, j) by closed-form enumeration.

    The definition is symmetric in the two sides, so X ranges over the
    smaller one. A sub-pair violates when |d(X,Y) - d(I,J)| > eps; all
    comparisons are integer cross-multiplications.
    """
    if len(i) > len(j):
        i, j = j, i
    si, sj = len(i), len(j)
    e_ij = edge_count(rows, i, mask_of(j))
    lo_x = math.floor(eps * si) + 1
    lo_y = math.floor(eps * sj) + 1
    if lo_x > si or lo_y > sj:
        return True
    p, q = eps.numerator, eps.denominator
    cols = [rows[v] for v in j]
    bits = [1 << u for u in i]
    x_masks = [0] * (1 << si)
    for sub in range(1, 1 << si):
        low = sub & -sub
        x_mask = x_masks[sub ^ low] | bits[low.bit_length() - 1]
        x_masks[sub] = x_mask
        sx = sub.bit_count()
        if sx < lo_x:
            continue
        counts = sorted((c & x_mask).bit_count() for c in cols)
        low_sum = sum(counts[: lo_y - 1])
        high_sum = sum(counts[sj - lo_y + 1 :])
        for sy in range(lo_y, sj + 1):
            low_sum += counts[sy - 1]
            high_sum += counts[sj - sy]
            scale = sx * sy
            limit = p * scale * si * sj
            if (high_sum * si * sj - e_ij * scale) * q > limit:
                return False
            if (e_ij * scale - low_sum * si * sj) * q > limit:
                return False
    return True


def most_covering_leftover(n, classes):
    """Vertices outside the class size that covers the most vertices."""
    by_size = {}
    for c in classes:
        by_size[len(c)] = by_size.get(len(c), 0) + len(c)
    return n - max(by_size.values())


def _partition_problems(n, classes):
    seen = sorted(v for c in classes for v in c)
    if seen != list(range(n)):
        return [f"classes do not cover 0..{n - 1} disjointly"]
    if any(not c or list(c) != sorted(set(c)) for c in classes):
        return ["class empty or not listed in ascending order"]
    return []


def _read_partition_file(text):
    classes = []
    for line in text.splitlines():
        head, _, tail = line.partition(":")
        if int(head) != len(classes):
            raise ValueError(f"class index {head} out of order")
        classes.append([int(v) for v in tail.split()])
    return classes


class Checker:
    """Checks every repetition of one workload against one generated input."""

    def __init__(self, command, n, edges, classes, eps, exit_codes):
        self.command = command
        self.n = n
        self.rows = adjacency(n, edges)
        self.classes = [list(c) for c in classes]
        self.eps = Fraction(eps)
        self.exit_codes = frozenset(exit_codes)
        self._cache = {}
        self._kinds = None

    def check(self, exit_code, stdout, files):
        """Problems with one repetition's exit code, stdout and output files."""
        key = hashlib.sha256(
            json.dumps([exit_code, stdout, sorted(files.items())]).encode()
        ).hexdigest()
        if key not in self._cache:
            try:
                payload = json.loads(stdout)
                if self.command == "check":
                    problems = self._check_report(exit_code, payload)
                else:
                    problems = self._check_regularize(exit_code, payload, files)
            except (
                ValueError, KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError
            ) as exc:
                problems = [f"unreadable output: {exc!r}"]
            self._cache[key] = problems
        return self._cache[key]

    def reference_kinds(self):
        """Exact kind of every ordered pair with |I| + |J| <= DECIDE_CUTOFF."""
        if self._kinds is None:
            k = len(self.classes)
            kinds = {}
            for a in range(k):
                for b in range(a, k):
                    i, j = self.classes[a], self.classes[b]
                    if len(i) + len(j) > DECIDE_CUTOFF:
                        continue
                    regular = pair_is_regular(self.rows, i, j, self.eps)
                    kind = REGULAR_CERTIFIED if regular else IRREGULAR_WITNESSED
                    kinds[(a, b)] = kinds[(b, a)] = kind
            self._kinds = kinds
        return self._kinds

    def _witness_problems(self, pair, w):
        i, j = self.classes[pair[0]], self.classes[pair[1]]
        x, y = w["x"], w["y"]
        eps = self.eps
        if not set(x) <= set(i) or not set(y) <= set(j):
            return [f"pair {pair}: witness sets not inside their classes"]
        if len(set(x)) != len(x) or len(set(y)) != len(y):
            return [f"pair {pair}: witness lists a vertex twice"]
        if not (len(x) > eps * len(i) and len(y) > eps * len(j)):
            return [f"pair {pair}: witness sets not larger than eps times their classes"]
        d_xy = density(self.rows, x, y)
        d_ij = density(self.rows, i, j)
        if Fraction(w["d_xy"]) != d_xy or Fraction(w["d_ij"]) != d_ij:
            return [f"pair {pair}: stored densities differ from recomputation"]
        if not abs(d_xy - d_ij) > eps:
            return [f"pair {pair}: density gap {abs(d_xy - d_ij)} not above {eps}"]
        return []

    def _check_report(self, exit_code, body):
        problems = []
        k = len(self.classes)
        eps, n = self.eps, self.n
        if body["n"] != n or Fraction(body["epsilon"]) != eps:
            problems.append("report n or epsilon differs from the input")
        if body["classes"] != self.classes or body["num_classes"] != k:
            problems.append("report classes differ from the input partition")
        entries = body["classifications"]
        pairs = [tuple(e["pair"]) for e in entries]
        if sorted(pairs) != [(a, b) for a in range(k) for b in range(k)]:
            return problems + ["classifications do not list each ordered pair once"]
        reference = self.reference_kinds()
        mass = 0
        for pair, entry in zip(pairs, entries):
            kind = entry["kind"]
            if kind not in (REGULAR_CERTIFIED, IRREGULAR_WITNESSED, UNKNOWN):
                problems.append(f"pair {pair}: unknown kind {kind!r}")
            elif pair in reference and kind != reference[pair]:
                problems.append(f"pair {pair}: kind {kind}, exact answer {reference[pair]}")
            if (kind == IRREGULAR_WITNESSED) != ("witness" in entry):
                problems.append(f"pair {pair}: witness present iff irregular fails")
            elif kind == IRREGULAR_WITNESSED:
                problems += self._witness_problems(pair, entry["witness"])
                mass += len(self.classes[pair[0]]) * len(self.classes[pair[1]])
        threshold = eps * n * n
        if body["irregular_mass"] != mass or Fraction(body["threshold"]) != threshold:
            problems.append("irregular mass or threshold differs from recomputation")
        if mass > threshold:
            verdict = "irregular"
        elif any(e["kind"] == UNKNOWN for e in entries):
            verdict = "heuristically_regular"
        else:
            verdict = "regular"
        if body["verdict"] != verdict:
            problems.append(f"verdict {body['verdict']}, expected {verdict}")
        balanced = most_covering_leftover(n, self.classes) <= eps * n
        if body["balance"]["balanced"] != balanced:
            problems.append("balance flag differs from recomputation")
        expected = {"regular": 0, "heuristically_regular": 2}.get(verdict, 4)
        if not balanced:
            expected = 4
        if exit_code != expected or exit_code not in self.exit_codes:
            problems.append(f"exit code {exit_code}, expected {expected} in {sorted(self.exit_codes)}")
        return problems

    def _check_regularize(self, exit_code, body, files):
        n, eps = self.n, self.eps
        final = body["final"]
        problems = _partition_problems(n, final)
        if problems:
            return problems
        status = body["status"]
        if exit_code != REGULARIZE_EXIT.get(status) or exit_code not in self.exit_codes:
            problems.append(f"status {status} with exit code {exit_code}, allowed {sorted(self.exit_codes)}")
        if body["num_classes"] != len(final):
            problems.append("num_classes differs from the final partition")
        if _read_partition_file(files["out"]) != final:
            problems.append("--out partition file differs from the stdout partition")
        final_energy = energy(self.rows, final)
        if Fraction(body["energy"]) != final_energy:
            problems.append(f"energy {body['energy']}, recomputed {final_energy}")
        trace = json.loads(files["trace"])
        steps = trace["steps"]
        energies = [Fraction(s["energy"]) for s in steps]
        if any(b < a for a, b in zip(energies, energies[1:])):
            problems.append("trace energies decrease")
        if len(steps) != body["steps"] or trace["final"] != final:
            problems.append("trace file disagrees with stdout")
        refines = sum(s["phase"] == "refine" for s in steps)
        if refines != body["refine_count"] or trace["refine_count"] != refines:
            problems.append("refine_count differs from the trace's refine steps")
        if status != "class_budget_exceeded":
            if not steps or energies[-1] != final_energy:
                problems.append("last trace energy is not the final partition's")
            if most_covering_leftover(n, final) > eps * n:
                problems.append("final partition is not eps-balanced")
        if status == "regular":
            problems += self._regular_problems(final)
        return problems

    def _regular_problems(self, classes):
        """A 'regular' final partition: decide its small pairs here."""
        eps, n = self.eps, self.n
        mass = 0
        for a, i in enumerate(classes):
            for j in classes[a:]:
                if len(i) + len(j) <= DECIDE_CUTOFF and not pair_is_regular(
                    self.rows, i, j, eps
                ):
                    mass += len(i) * len(j) * (1 if i is j else 2)
        if mass > eps * n * n:
            return [f"status regular, but irregular mass {mass} exceeds eps*n^2"]
        return []
