"""Span tracing for the traced benchmark run, installed from outside regpart.

Tracer.install() wraps the public functions of each measured layer and
rebinds every module-level name that refers to them. regpart imports
functions by name (``energy`` lives in graph, refine, driver and cli;
``density`` in graph and regularity), so patching only the defining module
would miss most calls. ``Graph.from_edges`` is a classmethod and is rebound
on the class.

A span is [name, start, end, parent, run_id, tag]: parent is the index of
the enclosing span (-1 for the root), and tag is a per-call observation
(the verdict of a pair check, the number of witnesses applied, ...). Spans
stay in memory until the command ends; write() then saves them as JSON.
"""

import json
import time

# layer -> public functions measured in it. classify_pair is left out on
# purpose: it is a three-way dispatch called once per class pair, and its
# span would cost more than the time it measures.
LAYERS = {
    "io": (
        "load_edge_list",
        "load_partition",
        "dump_partition",
        "dump_trace_json",
        "dump_trace_csv",
        "report_json",
    ),
    "graph": ("Graph.from_edges", "energy", "density"),
    "regularity": (
        "check_pair_exhaustive",
        "find_witness_heuristic",
        "validate_witness",
        "check_partition",
    ),
    "refine": ("balance_refine", "irregularity_refine", "atom_partition", "is_balanced"),
    "driver": ("regularize", "verify_trace", "balanced_irregularity_bound"),
    "cli": ("main", "cmd_regularize", "cmd_check"),
}

MODULES = ("io", "graph", "regularity", "refine", "driver", "cli")


def _pair_kind(args, kwargs, result):
    return "irregular" if result.is_irregular else "regular"


def _edges(args, kwargs, result):
    return result.edge_count


def _witness_count(args, kwargs, result):
    return len(args[3] if len(args) > 3 else kwargs["witnesses"])


def _pair_kinds(args, kwargs, result):
    counts = {}
    for clf in result.classifications.values():
        counts[clf.kind] = counts.get(clf.kind, 0) + 1
    return counts


# Functions whose calls carry a tag, computed from the call after the
# span has closed, so the observation is charged to the caller's self time.
TAGGERS = {
    "check_pair_exhaustive": _pair_kind,
    "find_witness_heuristic": _pair_kind,
    "load_edge_list": _edges,
    "irregularity_refine": _witness_count,
    "check_partition": _pair_kinds,
}


class Tracer:
    """Collects spans for one command run; one instance per process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._installed = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        run_id = self.run_id
        clock = time.perf_counter
        tagger = TAGGERS.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tagger is not None:
                span[5] = tagger(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in LAYERS wherever regpart binds it by name."""
        import importlib

        modules = [importlib.import_module("regpart")]
        modules += [importlib.import_module(f"regpart.{m}") for m in MODULES]
        graph_cls = importlib.import_module("regpart.graph").Graph
        from_edges = graph_cls.__dict__["from_edges"]
        graph_cls.from_edges = classmethod(
            self.wrap("Graph.from_edges", from_edges.__func__)
        )
        self._installed.append((graph_cls, "from_edges", from_edges))
        wrappers = {}
        for module in modules[1:]:
            for name in LAYER_OF:
                fn = vars(module).get(name)
                if getattr(fn, "__module__", None) == module.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, traced = wrappers.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, traced)
                    self._installed.append((module, attr, value))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "run_id", "tag"],
                    "spans": self.spans,
                },
                fh,
            )
            fh.write("\n")


LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans):
    """Per-layer metrics of one traced command, keyed by metric name.

    Names ending in self_s are self times; other _s names are the summed
    durations of that function's spans, children included. None of the
    measured functions calls itself, so no span is counted twice. The
    exhaustive regular/irregular split and maximum count only calls that
    returned.
    """
    own = self_times(spans)
    total = {}
    self_of = {}
    calls = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    exhaustive = {"regular": 0.0, "irregular": 0.0}
    exhaustive_max = 0.0
    heuristic_hits = 0
    edges_parsed = 0
    witnesses_applied = 0
    pairs = {}
    for span, self_s in zip(spans, own):
        name, start, end, tag = span[0], span[1], span[2], span[5]
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_of[name] = self_of.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        layer_self[LAYER_OF[name]] += self_s
        if tag is None:  # untagged function, or a call that raised
            continue
        if name == "check_pair_exhaustive":
            exhaustive[tag] += dur
            exhaustive_max = max(exhaustive_max, dur)
        elif name == "find_witness_heuristic":
            heuristic_hits += tag == "irregular"
        elif name == "load_edge_list":
            edges_parsed += tag
        elif name == "irregularity_refine":
            witnesses_applied += tag
        elif name == "check_partition":
            for kind, count in tag.items():
                pairs[kind] = pairs.get(kind, 0) + count

    def t(name):
        return total.get(name, 0.0)

    heuristic_calls = calls.get("find_witness_heuristic", 0)
    metrics = {
        "io.load_edge_list_self_s": self_of.get("load_edge_list", 0.0),
        "io.edges_parsed": edges_parsed,
        "io.load_partition_s": t("load_partition"),
        "io.dump_s": t("dump_partition") + t("dump_trace_json") + t("dump_trace_csv"),
        "graph.from_edges_s": t("Graph.from_edges"),
        "graph.energy_s": t("energy"),
        "graph.energy_calls": calls.get("energy", 0),
        "graph.density_calls": calls.get("density", 0),
        "regularity.exhaustive_s": t("check_pair_exhaustive"),
        "regularity.exhaustive_calls": calls.get("check_pair_exhaustive", 0),
        "regularity.exhaustive_max_pair_s": exhaustive_max,
        "regularity.exhaustive_regular_s": exhaustive["regular"],
        "regularity.exhaustive_irregular_s": exhaustive["irregular"],
        "regularity.heuristic_s": t("find_witness_heuristic"),
        "regularity.heuristic_calls": heuristic_calls,
        "regularity.heuristic_hit_ratio": (
            heuristic_hits / heuristic_calls if heuristic_calls else 0.0
        ),
        "regularity.check_partition_self_s": self_of.get("check_partition", 0.0),
        "regularity.validate_witness_s": t("validate_witness"),
        "regularity.validate_witness_calls": calls.get("validate_witness", 0),
        "regularity.pairs_certified": pairs.get("regular_certified", 0),
        "regularity.pairs_witnessed": pairs.get("irregular_witnessed", 0),
        "regularity.pairs_unknown": pairs.get("unknown_treated_as_regular", 0),
        "refine.balance_s": t("balance_refine"),
        "refine.irregularity_refine_self_s": self_of.get("irregularity_refine", 0.0),
        "refine.atom_partition_s": t("atom_partition"),
        "refine.witnesses_applied": witnesses_applied,
        "driver.regularize_self_s": self_of.get("regularize", 0.0),
        "driver.verify_trace_s": t("verify_trace"),
        "driver.core_bound_s": t("balanced_irregularity_bound"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    roots = [s for s in spans if s[3] < 0]
    metrics["trace.span_wall_s"] = sum(s[2] - s[1] for s in roots)
    return metrics
